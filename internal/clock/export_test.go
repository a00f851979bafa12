package clock

// Len reports the number of pending events, counting each pending item
// of a batch as one.
func (v *Virtual) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.heap) + v.behind
}
