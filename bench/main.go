// Command bench is the benchmark of this repository: end-to-end metrics on
// five named workloads and, on a traced pass, per-layer metrics. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	list     bool
	spec     bool
	repeat   int
	out      string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long each run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink every shape and count (a test of the benchmark, not a measurement)")
	flag.BoolVar(&o.list, "list", false, "print every workload and metric name with its unit and exit")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as generated from the metric tables and exit")
	flag.IntVar(&o.repeat, "repeat", 0, "run each selected workload N times in child processes, seeds seed..seed+N-1, and report medians, quartiles and spread against the bounds")
	flag.StringVar(&o.out, "out", "", "with -repeat: save the runs to this file for -compare")
	flag.BoolVar(&o.compare, "compare", false, "judge a change against its parent: bench -compare parent.json change.json (files saved by -repeat -out)")
	flag.Parse()
	if err := dispatch(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(o options, args []string) error {
	switch {
	case o.spec:
		_, err := os.Stdout.Write(benchmarkJSON())
		return err
	case o.list:
		printList()
		return nil
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files saved by -repeat -out")
		}
		return compareFiles(args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	var selected []workloadDef
	if o.workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(o.workload); ok {
		selected = []workloadDef{w}
	} else {
		return fmt.Errorf("unknown workload %q (see -list)", o.workload)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.repeat > 0 {
		return repeatRuns(selected, o)
	}
	sz := full
	if o.smoke {
		sz = smoke
	}
	var last *result
	for _, w := range selected {
		res, err := runOnce(w, o.seed, o.seconds, sz, o.trace != 0)
		if err != nil {
			return err
		}
		printResult(res)
		last = res
	}
	// The last line of standard output is the contract's result object (of
	// the last workload run; the driver selects one).
	return json.NewEncoder(os.Stdout).Encode(contractLine(last))
}

// outDir is where a traced pass dumps its spans: bench/out, wherever in the
// checkout the program was started from.
func outDir() string {
	if _, err := os.Stat("bench/spec.go"); err == nil {
		return "bench/out"
	}
	return "out"
}

// runOnce is one run of one workload: the untraced pass with the end-to-end
// metrics, or the traced pass with the per-layer metrics.
func runOnce(w workloadDef, seed int64, seconds float64, sz sizing, traced bool) (*result, error) {
	if !traced {
		res, _, err := run(w, seed, seconds, sz, nil)
		return res, err
	}
	// The traced pass spends a quarter of the time on the workload under
	// spans and the rest on the layer probes.
	tr := newTracer()
	res, r, err := run(w, seed, seconds/4, sz, tr)
	if err != nil {
		return nil, err
	}
	layers, probeErrs, err := probeLayers(sz, seed, time.Duration(seconds*0.6*float64(time.Second)))
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	res.attempted += len(perLayer)
	for _, e := range probeErrs {
		res.fail(1, e)
	}
	self := tr.selfTimes()
	for _, s := range spanNames {
		layers["span."+s.name+"_self_us"] = self[s.name] / float64(max(res.samples, 1))
	}
	m := r.metrics()
	layers["engine.solves"] = float64(m.Solves)
	layers["engine.scratch_solves"] = float64(m.ScratchSolves)
	layers["engine.cache_hits"] = float64(m.CacheHits)
	layers["engine.compiles"] = float64(m.Compiles)
	layers["engine.class_dedups"] = float64(m.ClassDedups)
	layers["engine.store_errors"] = float64(m.StoreErrors)
	layers["engine.hit_share"] = 0
	if fetches := m.CacheHits + m.StoreHits + m.BestHits + m.Solves + m.ClassDedups + m.Coalesced; fetches > 0 {
		layers["engine.hit_share"] = float64(m.CacheHits) / float64(fetches)
	}
	res.metrics = layers
	if err := tr.write(outDir(), w.name, layers); err != nil {
		// The dump is a convenience; the metrics above are the result.
		fmt.Fprintln(os.Stderr, "bench: span dump not written:", err)
	}
	return res, nil
}

// contractLine renders a result as the object the builder contract reads
// from the last line of standard output.
func contractLine(r *result) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := metricDefs(r.traced)
	metrics := make(map[string]value, len(defs))
	complete := true
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		complete = complete && ok
		metrics[d.name] = value{v, d.unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && complete, r.attempted, r.failed, metrics}
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-12s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (every workload, -trace 0):")
	for _, m := range endToEnd {
		fmt.Printf("  %-34s %-6s %-6s bound %.2f\n", m.name, m.unit, m.better, m.bound)
	}
	fmt.Println("per-layer metrics (-trace 1) and the end-to-end metric each should move:")
	for _, m := range perLayer {
		fmt.Printf("  %-34s %-6s %-6s %s\n", m.name, m.unit, m.better, m.moves)
	}
}

func printResult(r *result) {
	pass := "untraced"
	if r.traced {
		pass = "traced"
	}
	fmt.Printf("== %s  seed %d  %s  %d timed ops  %d attempted  %d failed\n", r.workload, r.seed, pass, r.samples, r.attempted, r.failed)
	for _, e := range r.errors {
		fmt.Printf("   FAILED: %s\n", e)
	}
	for _, d := range metricDefs(r.traced) {
		fmt.Printf("   %-34s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	if !r.traced {
		return
	}
	// The tiling the traced pass exists for, spelled out.
	m := r.metrics
	if over := m["dtrain.kill_overhead_us"]; over != 0 {
		fmt.Printf("   kill overhead %.0f us = control plane %.0f us (%.0f%%) + residual %.0f us (%.0f%%)\n",
			over, m["dtrain.ctl_resume_us"], 100*m["dtrain.ctl_resume_us"]/over, m["dtrain.kill_residual_us"], 100*m["dtrain.kill_residual_us"]/over)
	}
	var names []string
	for _, s := range spanNames {
		if m["span."+s.name+"_self_us"] > 0 {
			names = append(names, fmt.Sprintf("%s %.0f", s.name, m["span."+s.name+"_self_us"]))
		}
	}
	sort.Strings(names)
	fmt.Printf("   span self time per op (us): %s\n", strings.Join(names, ", "))
}
