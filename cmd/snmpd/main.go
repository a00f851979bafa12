// Command snmpd runs the embedded extension agent as a standalone
// SNMP agent over UDP, serving the simulated host MIB.  The host's
// parameters follow configurable schedules so a remote manager (e.g.
// cmd/snmpget) observes a live, changing system.
//
// Usage:
//
//	snmpd [-addr 127.0.0.1:16161] [-community public] [-name host-1]
//	      [-cpu 30:100:20] [-faults 30:100:20] [-tick 1s]
//
// The -cpu and -faults flags take from:to:steps ramps (or a single
// constant value).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/hostagent"
)

func parseSchedule(spec string) (hostagent.Schedule, error) {
	if spec == "" {
		return hostagent.Constant(0), nil
	}
	parts := strings.Split(spec, ":")
	switch len(parts) {
	case 1:
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad constant %q: %w", spec, err)
		}
		return hostagent.Constant(v), nil
	case 3:
		from, err1 := strconv.ParseFloat(parts[0], 64)
		to, err2 := strconv.ParseFloat(parts[1], 64)
		steps, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || steps < 2 {
			return nil, fmt.Errorf("bad ramp %q (want from:to:steps)", spec)
		}
		return hostagent.Ramp{From: from, To: to, Steps: steps}, nil
	default:
		return nil, fmt.Errorf("bad schedule %q", spec)
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:16161", "UDP address to serve SNMP on")
	community := flag.String("community", "public", "read community string ('' allows any)")
	name := flag.String("name", "host-1", "simulated host name (sysDescr)")
	cpu := flag.String("cpu", "30:100:20", "cpu-load schedule: constant or from:to:steps")
	faults := flag.String("faults", "30:100:20", "page-fault schedule: constant or from:to:steps")
	tick := flag.Duration("tick", time.Second, "workload step interval")
	flag.Parse()

	host := hostagent.NewHost(*name)
	cpuSched, err := parseSchedule(*cpu)
	if err != nil {
		log.Fatalf("snmpd: %v", err)
	}
	faultSched, err := parseSchedule(*faults)
	if err != nil {
		log.Fatalf("snmpd: %v", err)
	}
	host.SetSchedule(hostagent.ParamCPULoad, cpuSched)
	host.SetSchedule(hostagent.ParamPageFaults, faultSched)
	host.Set(hostagent.ParamBandwidth, 10_000_000)

	agent := hostagent.NewAgent(host)
	agent.ReadCommunity = *community

	ua, err := net.ResolveUDPAddr("udp", *addr)
	if err != nil {
		log.Fatalf("snmpd: %v", err)
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		log.Fatalf("snmpd: %v", err)
	}
	log.Printf("snmpd: serving host %q MIB on %s (community %q)", *name, sock.LocalAddr(), *community)
	log.Printf("snmpd: cpu-load OID %s.0, page-faults OID %s.0",
		hostagent.OIDCPULoad, hostagent.OIDPageFaults)

	go func() {
		ticker := clock.Wall.NewTicker(*tick)
		defer ticker.Stop()
		for range ticker.C {
			step := host.Step()
			log.Printf("snmpd: step %d: cpu=%.0f%% faults=%.0f/s",
				step, host.Get(hostagent.ParamCPULoad), host.Get(hostagent.ParamPageFaults))
		}
	}()

	if err := agent.ServeUDP(sock); err != nil {
		log.Fatalf("snmpd: %v", err)
	}
}
