package metrics

// Reset zeroes the counter: counters are process-global, so a test
// rerun with -count=2 starts from what the last run left.
func (c *Counter) Reset() { c.v.Store(0) }
