// Package experiments regenerates the paper's evaluation figures.
//
// Figure 6: image-viewer parameters (packets accepted, compression
// ratio, bits per pixel) versus host page faults.
// Figure 7: the same parameters versus CPU load.
// Figure 8: SIR of two wireless clients while client A's distance
// varies (mobility).
// Figure 9: SIR while client A's transmit power varies.
// Figure 10: SIR of up to three wireless clients as clients join and
// distance/power vary, showing the session-size limit.
//
// Each experiment runs the real pipeline: the synthetic host feeds the
// embedded SNMP agent; the monitor samples it; the inference engine
// turns state into a packet budget; the image viewer accepts that
// budget's worth of a genuinely coded progressive image and reports
// the resulting rate/quality figures.  Absolute values depend on our
// coder and channel model; the shapes are what reproduce the paper.
package experiments

import (
	"fmt"
	"io"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/inference"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/snmp"
	"adaptiveqos/internal/trace"
	"adaptiveqos/internal/wavelet"
)

// viewerPipeline is the wired-client measurement rig shared by the
// Fig 6 and Fig 7 sweeps.
type viewerPipeline struct {
	host    *hostagent.Host
	monitor *hostagent.Monitor
	engine  *inference.Engine
	meta    apps.ImageMeta
	packets [][]byte
	image   *wavelet.Image
}

func newViewerPipeline(imageSize int) (*viewerPipeline, error) {
	host := hostagent.NewHost("experiment-host")
	agent := hostagent.NewAgent(host)
	monitor := &hostagent.Monitor{
		Client: snmp.NewClient(&snmp.AgentRoundTripper{Agent: agent}, snmp.V2c, "public"),
	}
	engine := inference.New("", profile.MustContract("fig67",
		profile.Constraint{Param: inference.StateCPULoad, Min: 0, Max: 90, Hard: true},
		profile.Constraint{Param: inference.StatePageFaults, Min: 0, Max: 95},
	), clock.Wall)

	im := wavelet.Medical(imageSize, imageSize, 7)
	obj, err := media.EncodeImage(im, "experiment image")
	if err != nil {
		return nil, err
	}
	meta, packets, err := apps.ShareImage("exp-img", obj, apps.SharePackets)
	if err != nil {
		return nil, err
	}
	return &viewerPipeline{
		host:    host,
		monitor: monitor,
		engine:  engine,
		meta:    meta,
		packets: packets,
		image:   im,
	}, nil
}

// measure runs one adaptation cycle at the host's current state and
// returns the viewer statistics plus reconstruction PSNR.
func (p *viewerPipeline) measure() (apps.ImageStats, float64, error) {
	params := []string{hostagent.ParamCPULoad, hostagent.ParamPageFaults}
	sample, err := p.monitor.Sample(params...)
	if err != nil {
		return apps.ImageStats{}, 0, err
	}
	state := make(selector.Attributes, len(params))
	for _, param := range params {
		v, _ := sample.Get(param)
		state.SetNumber(param, v)
	}
	d := p.engine.Decide(state)

	viewer := apps.NewImageViewer()
	viewer.SetBudget(d.EffectiveBudget(apps.SharePackets))
	viewer.Announce(p.meta)
	for i, pkt := range p.packets {
		if err := viewer.AddPacket(p.meta.Object, i, pkt); err != nil {
			return apps.ImageStats{}, 0, err
		}
	}
	st, err := viewer.Stats(p.meta.Object)
	if err != nil {
		return apps.ImageStats{}, 0, err
	}
	res, err := viewer.Render(p.meta.Object)
	if err != nil {
		return apps.ImageStats{}, 0, err
	}
	psnr, err := wavelet.PSNR(p.image, res.Image)
	if err != nil {
		return apps.ImageStats{}, 0, err
	}
	return st, psnr, nil
}

// Fig6 sweeps host page faults from 30 to 100 and reports the image
// viewer parameters, reproducing the paper's Figure 6 (graphs 1–3).
func Fig6(steps int) (*metrics.Table, error) {
	if steps < 2 {
		steps = 8
	}
	p, err := newViewerPipeline(128)
	if err != nil {
		return nil, err
	}
	p.host.Set(hostagent.ParamCPULoad, 20) // CPU unconstrained in this sweep
	table := metrics.NewTable("page-faults")
	for s := 0; s < steps; s++ {
		pf := 30 + float64(s)*70/float64(steps-1)
		p.host.Set(hostagent.ParamPageFaults, pf)
		st, psnr, err := p.measure()
		if err != nil {
			return nil, fmt.Errorf("fig6 step %d: %w", s, err)
		}
		table.Add("packets", pf, float64(st.PacketsAccepted))
		table.Add("compression-ratio", pf, st.CompressionRatio)
		table.Add("bpp", pf, st.BPP)
		table.Add("psnr-db", pf, psnr)
	}
	return table, nil
}

// Fig7 sweeps host CPU load from 30 to 100 % and reports the image
// viewer parameters, reproducing the paper's Figure 7.
func Fig7(steps int) (*metrics.Table, error) {
	if steps < 2 {
		steps = 8
	}
	p, err := newViewerPipeline(128)
	if err != nil {
		return nil, err
	}
	p.host.Set(hostagent.ParamPageFaults, 10) // page faults unconstrained
	table := metrics.NewTable("cpu-load")
	for s := 0; s < steps; s++ {
		load := 30 + float64(s)*70/float64(steps-1)
		p.host.Set(hostagent.ParamCPULoad, load)
		st, psnr, err := p.measure()
		if err != nil {
			return nil, fmt.Errorf("fig7 step %d: %w", s, err)
		}
		table.Add("packets", load, float64(st.PacketsAccepted))
		table.Add("compression-ratio", load, st.CompressionRatio)
		table.Add("bpp", load, st.BPP)
		table.Add("psnr-db", load, psnr)
	}
	return table, nil
}

// tierNumber renders a tier as a plottable level (0..3).
func tierNumber(t radio.Tier) float64 { return float64(t) }

// Fig8 reproduces the varying-distance experiment: two wireless
// clients at fixed power; client A moves from 100 m to 50 m (points
// 0–3) and back out (points 3–5).  Series: each client's SIR at the BS
// and the modality tier the BS selects for A's uplink.
func Fig8() (*metrics.Table, error) {
	ch := radio.NewChannel(radio.Params{})
	if err := ch.Join("A", 100, 1); err != nil {
		return nil, err
	}
	if err := ch.Join("B", 80, 1); err != nil {
		return nil, err
	}
	th := radio.DefaultThresholds()
	path := trace.Fig8PathA()

	table := metrics.NewTable("step")
	for s := 0; s <= 5; s++ {
		if err := ch.SetDistance("A", path.At(s)); err != nil {
			return nil, err
		}
		sirA, err := ch.SIRdB("A")
		if err != nil {
			return nil, err
		}
		sirB, err := ch.SIRdB("B")
		if err != nil {
			return nil, err
		}
		x := float64(s)
		table.Add("distance-A-m", x, path.At(s))
		table.Add("sir-A-db", x, sirA)
		table.Add("sir-B-db", x, sirB)
		table.Add("tier-A", x, tierNumber(th.TierFor(sirA)))
		table.Add("tier-B", x, tierNumber(th.TierFor(sirB)))
	}
	return table, nil
}

// Fig9 reproduces the varying-power experiment: client A's transmit
// power is increased in steps at fixed distances.
func Fig9() (*metrics.Table, error) {
	ch := radio.NewChannel(radio.Params{})
	if err := ch.Join("A", 100, 0.5); err != nil {
		return nil, err
	}
	if err := ch.Join("B", 80, 1); err != nil {
		return nil, err
	}
	table := metrics.NewTable("step")
	power := 0.5
	for s := 0; s <= 5; s++ {
		if err := ch.SetPower("A", power); err != nil {
			return nil, err
		}
		sirA, err := ch.SIRdB("A")
		if err != nil {
			return nil, err
		}
		sirB, err := ch.SIRdB("B")
		if err != nil {
			return nil, err
		}
		x := float64(s)
		table.Add("power-A-w", x, power)
		table.Add("sir-A-db", x, sirA)
		table.Add("sir-B-db", x, sirB)
		power *= 1.6
	}
	return table, nil
}

// Fig10Result extends the Fig 10 table with the headline drop ratios.
type Fig10Result struct {
	Table *metrics.Table
	// DropOnSecondJoin is client A's relative (linear) SIR drop when
	// client 2 joins; the paper reports ~90 %.
	DropOnSecondJoin float64
	// DropOnThirdJoin is the further relative drop when client 3
	// joins; the paper reports ~23 %.
	DropOnThirdJoin float64
	// AdmissionLimit is the estimated maximum number of equal clients
	// sustaining at least the text threshold.
	AdmissionLimit int
}

// Fig10 reproduces the multi-client experiment: clients join one by
// one with varying distance and power; every client's SIR deteriorates
// with each join, bounding the session size.
func Fig10() (*Fig10Result, error) {
	// The noise floor is calibrated so client A alone sees ~13 dB and
	// the staged joins reproduce the paper's relative drops: ~90 % when
	// client 2 joins, a further ~23 % when client 3 joins.
	ch := radio.NewChannel(radio.Params{NoiseFloor: 2.31e-7})
	th := radio.DefaultThresholds()
	table := metrics.NewTable("step")

	record := func(step int) error {
		for _, id := range ch.IDs() {
			db, err := ch.SIRdB(id)
			if err != nil {
				return err
			}
			table.Add("sir-"+id+"-db", float64(step), db)
			table.Add("tier-"+id, float64(step), tierNumber(th.TierFor(db)))
		}
		table.Add("clients", float64(step), float64(ch.Len()))
		return nil
	}

	// Step 0: client A alone.
	if err := ch.Join("A", 60, 1); err != nil {
		return nil, err
	}
	if err := record(0); err != nil {
		return nil, err
	}
	sirAlone, _ := ch.SIR("A")

	// Step 1: client 2 joins — the dominant interference event.
	if err := ch.Join("B", 90, 1.5); err != nil {
		return nil, err
	}
	if err := record(1); err != nil {
		return nil, err
	}
	sirWith2, _ := ch.SIR("A")

	// Step 2: client 3 joins, farther and weaker — a smaller further
	// drop.
	if err := ch.Join("C", 105, 0.8); err != nil {
		return nil, err
	}
	if err := record(2); err != nil {
		return nil, err
	}
	sirWith3, _ := ch.SIR("A")

	// Steps 3–4: distance and power variation while crowded.
	if err := ch.SetDistance("B", 80); err != nil {
		return nil, err
	}
	if err := record(3); err != nil {
		return nil, err
	}
	if err := ch.SetPower("C", 2); err != nil {
		return nil, err
	}
	if err := record(4); err != nil {
		return nil, err
	}

	return &Fig10Result{
		Table:            table,
		DropOnSecondJoin: (sirAlone - sirWith2) / sirAlone,
		DropOnThirdJoin:  (sirWith2 - sirWith3) / sirWith2,
		AdmissionLimit:   ch.AdmissionLimit(60, 1, th.TextDB),
	}, nil
}

// Write runs one experiment, "fig6" … "fig10", and prints it to w as
// cmd/qosbench shows it: titled and aligned (Fig 10 followed by its
// headline drops), or as bare CSV.
func Write(w io.Writer, name string, steps int, csv bool) error {
	var (
		title string
		table *metrics.Table
		fig10 *Fig10Result
		err   error
	)
	switch name {
	case "fig6":
		title = "Figure 6 — image viewer parameters vs host page faults"
		table, err = Fig6(steps)
	case "fig7":
		title = "Figure 7 — image viewer parameters vs CPU load"
		table, err = Fig7(steps)
	case "fig8":
		title = "Figure 8 — two wireless clients, varying distance of client A"
		table, err = Fig8()
	case "fig9":
		title = "Figure 9 — two wireless clients, varying power of client A"
		table, err = Fig9()
	case "fig10":
		title = "Figure 10 — three wireless clients, varying distance and power"
		if fig10, err = Fig10(); err == nil {
			table = fig10.Table
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	if err != nil {
		return err
	}
	if csv {
		return table.RenderCSV(w)
	}
	fmt.Fprintln(w, title)
	if err := table.Render(w); err != nil {
		return err
	}
	if fig10 != nil {
		fmt.Fprintf(w, "\nSIR drop when client 2 joined: %.0f%% (paper: ~90%%)\n", fig10.DropOnSecondJoin*100)
		fmt.Fprintf(w, "further drop when client 3 joined: %.0f%% (paper: ~23%%)\n", fig10.DropOnThirdJoin*100)
		fmt.Fprintf(w, "estimated session limit at text threshold: %d equal clients\n", fig10.AdmissionLimit)
	}
	return nil
}
