package core

import (
	"testing"

	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/media"
)

// TestBandwidthTiersDriveModality: the SNMP-observed bandwidth selects
// the preferred modality, end to end: plenty → unchanged; below the
// sketch tier → sketch; below the text tier → text.  The preference is
// folded into the profile, where a base station (or peer) can see it.
func TestBandwidthTiersDriveModality(t *testing.T) {
	host, monitor := monitoredHost("h")
	c := newVNet(t, 91).client("c", Config{
		Monitor:       monitor,
		monitorParams: []string{hostagent.ParamCPULoad, hostagent.ParamBandwidth},
	})
	host.Set(hostagent.ParamCPULoad, 10)

	cases := []struct {
		bps  float64
		want media.Kind
	}{
		{1_000_000, ""},
		{40_000, media.KindSketch},
		{8_000, media.KindText},
	}
	for _, tc := range cases {
		host.Set(hostagent.ParamBandwidth, tc.bps)
		d, err := c.AdaptOnce()
		if err != nil {
			t.Fatal(err)
		}
		if d.Modality != tc.want {
			t.Errorf("bandwidth %g: modality %q, want %q", tc.bps, d.Modality, tc.want)
		}
		if tc.want != "" {
			if !profileMatches(c, `modality == "`+string(tc.want)+`"`) {
				t.Errorf("bandwidth %g: preference not in profile", tc.bps)
			}
		}
	}
}
