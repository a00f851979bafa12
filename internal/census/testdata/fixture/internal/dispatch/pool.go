// Package dispatch holds the fixture's worker pool, whose Each only the
// station's one fan-out may call.
package dispatch

// A Pool runs a function per member.
type Pool struct{}

// Each runs fn for every id.
func (p *Pool) Each(ids []string, fn func(string) error) error {
	for _, id := range ids {
		if err := fn(id); err != nil {
			return err
		}
	}
	return nil
}
