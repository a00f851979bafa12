//go:build !race

package radio

import (
	"fmt"
	"testing"
)

// TestSIRdBAllocatesNothing: reading an SIR in a full cell sums the
// cached gains and allocates nothing.
func TestSIRdBAllocatesNothing(t *testing.T) {
	c := newTestChannel(t)
	for i := 0; i < 256; i++ {
		c.Join(fmt.Sprintf("m%03d", i), 10+float64(i), 0.5)
	}
	if n := testing.AllocsPerRun(1000, func() { c.SIRdB("m128") }); n != 0 {
		t.Errorf("SIRdB allocates %v times per call", n)
	}
}
