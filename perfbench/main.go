// Command perfbench is the repository benchmark. It runs one workload for
// a fixed wall budget, checks the program's outputs, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object with the verdict and either the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1).
//
// Workloads:
//
//	live-small  two spc clusters joined by one loopback TCP link, 24 B SDOs
//	live-bulk   the same deployment, 16 KiB SDOs from a seeded payload pool
//	            (runnable, but not in BENCHMARK.json: see README.md)
//	sim-5k      streamsim at 5000 PEs / 500 nodes with periodic tier-1 re-solves
//
// Every layer is measured from outside: the benchmark times its own calls
// into each package's public functions and reads the counters those
// packages export. See README.md in this directory for the metric
// definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them, each under its workload's definition (see
// README.md); BENCHMARK.json lists the same names and units.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"goodput_sdo_s", "1/s"},
	{"weighted_tput", "1/s"},
	{"lat_p99_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// livePEs are the live deployment's processing elements, in PE-ID order.
var livePEs = []string{"ingest", "route", "sink-a", "sink-b"}

// perLayer lists the metrics of single layers. A metric that does not
// apply to a workload (the simulator has no sockets, the live deployment
// no tier-1 solve) is printed as n/a and reported as 0.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	s := []spec{
		// End-to-end in meaning, but too unsteady between runs to carry a
		// bound (see README.md).
		{"cpu_us_per_sdo", "us"}, {"lat_p50_ms", "ms"},
		{"spc.inject_ns.p50", "ns"}, {"spc.inject_ns.p99", "ns"},
		{"spc.emit_local_ns.p50", "ns"}, {"spc.emit_local_ns.p99", "ns"},
		{"spc.emit_remote_ns.p50", "ns"}, {"spc.emit_remote_ns.p99", "ns"},
	}
	for _, pe := range livePEs {
		s = append(s,
			spec{"spc.queue_wait_ms." + pe + ".p50", "ms"}, spec{"spc.queue_wait_ms." + pe + ".p99", "ms"},
			spec{"spc.service_ms." + pe + ".p50", "ms"}, spec{"spc.service_ms." + pe + ".p99", "ms"})
	}
	s = append(s,
		spec{"spc.hop_ms.ingress.p50", "ms"}, spec{"spc.hop_ms.ingress.p99", "ms"},
		spec{"spc.hop_ms.local.p50", "ms"}, spec{"spc.hop_ms.local.p99", "ms"},
		spec{"spc.hop_ms.remote.p50", "ms"}, spec{"spc.hop_ms.remote.p99", "ms"},
		spec{"spc.hop_ms.egress.p50", "ms"},
		spec{"spc.layer_sum_residual_pct", "%"},
	)
	for _, pe := range livePEs {
		s = append(s, spec{"spc.occ_mean." + pe, "count"}, spec{"spc.occ_max." + pe, "count"})
	}
	s = append(s,
		spec{"spc.input_drops.steady", "count"}, spec{"spc.inflight_drops.steady", "count"},
		spec{"spc.input_drops.overload", "count"}, spec{"spc.inflight_drops.overload", "count"},
		spec{"loss_frac", "ratio"},
		spec{"gen.late_ms.p99", "ms"}, spec{"gen.late_ms.max", "ms"},
		spec{"gen.offered.steady", "count"}, spec{"gen.injected.steady", "count"},
		spec{"gen.offered.overload", "count"}, spec{"gen.injected.overload", "count"},
		spec{"transport.batch_fill", "count"}, spec{"transport.frames_sent", "count"},
		spec{"transport.frames_dropped", "count"}, spec{"transport.reconnects", "count"},
		spec{"transport.outbox_peak.steady", "count"},
		spec{"transport.wire_mb_s", "MB/s"},
		spec{"go.alloc_b_per_sdo", "B"}, spec{"go.gc_count", "count"},
		spec{"go.gc_pause_ms", "ms"}, spec{"proc.sys_frac", "ratio"},
		spec{"obs.trace_overhead_pct", "%"}, spec{"obs.trace_goodput_loss_pct", "%"},
		spec{"graph.generate_ms", "ms"},
		spec{"optimize.cold_solve_ms", "ms"}, spec{"optimize.solve_ms.max", "ms"},
		spec{"optimize.iters", "count"}, spec{"optimize.objective", "1/s"},
		spec{"epoch_solve_ms", "ms"}, spec{"sim_wall_s", "s"}, spec{"sim_lat_p99_ms", "ms"},
		spec{"streamsim.self_s", "s"}, spec{"streamsim.steps", "count"},
		spec{"streamsim.ns_per_step", "ns"}, spec{"streamsim.deliveries", "count"},
		spec{"streamsim.drops", "count"},
	)
	return s
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// result is one workload run: the correctness verdict, the operation
// counts behind it, the metrics measured, and notes for the reader.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and records why.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.notef("FAIL: "+format, args...)
}

var workloads = map[string]func(options) (*result, error){
	"live-small": func(o options) (*result, error) { return runLive(o, liveSmall) },
	"live-bulk":  func(o options) (*result, error) { return runLive(o, liveBulk) },
	"sim-5k":     runSim,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: live-small, live-bulk or sim-5k")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: arrivals, payloads, topology and simulator")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured wall seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want live-small, live-bulk or sim-5k)", o.workload)
	}
	if o.seconds < 1 || trace < 0 || trace > 1 {
		return errors.New("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	o.trace = trace == 1
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, trace)
	fmt.Fprintf(stdout, "host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	res, err := fn(o)
	if err != nil {
		return err
	}
	return report(stdout, o, res)
}

// report prints every metric by name with its unit, then the JSON line.
func report(w io.Writer, o options, res *result) error {
	for _, n := range res.notes {
		fmt.Fprintln(w, "note:", n)
	}
	sets := []struct {
		title string
		specs []spec
	}{{"end-to-end", endToEnd}, {"per-layer", perLayer}}
	for _, set := range sets {
		fmt.Fprintf(w, "%s metrics:\n", set.title)
		for _, s := range set.specs {
			v, ok := res.metrics[s.name]
			if !ok {
				fmt.Fprintf(w, "  %-34s %14s %s\n", s.name, "n/a", s.unit)
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", s.name, v, s.unit)
		}
	}
	verdict := "CORRECT"
	if !res.correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "verdict %s attempted=%d failed=%d\n", verdict, res.attempted, res.failed)

	chosen := endToEnd
	if o.trace {
		chosen = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, s := range chosen {
		v, ok := res.metrics[s.name]
		if !ok && !o.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", s.name)
		}
		out.Metrics[s.name] = value{v, s.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// cpuModel returns the host's CPU model name, for the host record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of xs by nearest rank, sorting xs in
// place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

// tailLabel names the highest of the usual percentiles that still has at
// least ten samples beyond it, for a sample of size n.
func tailLabel(n int) string {
	best := "none"
	for _, p := range []struct {
		q    float64
		name string
	}{{0.5, "p50"}, {0.9, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}, {0.9999, "p99.99"}} {
		if (1-p.q)*float64(n) >= 10 {
			best = p.name
		}
	}
	return best
}
