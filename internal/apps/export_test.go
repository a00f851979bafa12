package apps

// EndAt applies the marker rule to a share directly, as AddChunk does
// for a chunk that carries the marker.
func (v *ImageViewer) EndAt(object string, total int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if si, ok := v.images[object]; ok {
		si.endAt(total)
	}
}
