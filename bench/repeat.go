package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// savedRuns is what -repeat -out writes and -compare reads: for each
// workload, every run's value of each metric, and the failures seen.
type savedRuns struct {
	Seconds   float64                         `json:"seconds"`
	Traced    bool                            `json:"traced"`
	Values    map[string]map[string][]float64 `json:"values"` // workload -> metric -> one value per run
	Attempted map[string]int                  `json:"attempted"`
	Failed    map[string]int                  `json:"failed"`
}

// repeatRuns runs each workload n times, each run a child process of this
// binary with its own seed - the way the acceptance procedure runs it - and
// reports per metric the median, the quartiles and their distance as a
// share of the median against the metric's bound.
func repeatRuns(selected []workloadDef, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traced, n := o.trace != 0, o.repeat
	saved := savedRuns{Seconds: o.seconds, Traced: traced, Values: map[string]map[string][]float64{}, Attempted: map[string]int{}, Failed: map[string]int{}}
	for _, w := range selected {
		saved.Values[w.name] = map[string][]float64{}
		for i := 0; i < n; i++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace)}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to exit
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var line struct {
				Attempted, Failed int
				Metrics           map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return fmt.Errorf("%s run %d: last line is not a result: %w", w.name, i, err)
			}
			saved.Attempted[w.name] += line.Attempted
			saved.Failed[w.name] += line.Failed
			for name, m := range line.Metrics {
				saved.Values[w.name][name] = append(saved.Values[w.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", w.name, i+1, n)
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(saved, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	}
	return reportSpread(saved)
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// reportSpread prints the table of one set of runs. It is an error when an
// op failed, or when an end-to-end metric other than setup_s spreads wider
// than its bound (the benchmark could not resolve a regression that size).
func reportSpread(s savedRuns) error {
	bad := 0
	fmt.Printf("%-12s %-34s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		vals, ok := s.Values[w.name]
		if !ok {
			continue
		}
		if s.Failed[w.name] > 0 {
			fmt.Printf("%-12s FAILED %d of %d attempted ops\n", w.name, s.Failed[w.name], s.Attempted[w.name])
			bad++
		}
		for _, d := range metricDefs(s.Traced) {
			xs := vals[d.name]
			if len(xs) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := ""
			switch {
			case d.bound == 0 || d.name == "setup_s":
			case sp > d.bound:
				verdict = "WIDER THAN BOUND"
				bad++
			case sp > d.bound/3:
				verdict = "above bound/3"
			}
			fmt.Printf("%-12s %-34s %12.4f %12.4f %12.4f %7.1f%% %5.0f%% %s\n", w.name, d.name, median(xs), q1, q3, 100*sp, 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs failed or spread wider than their bound", bad)
	}
	return nil
}

func loadRuns(path string) (savedRuns, error) {
	var s savedRuns
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles judges a change against its parent, each measured by -repeat
// with the same settings: per workload x end-to-end metric the change's
// median may be worse than the parent's by at most the bound. A pair whose
// parent runs spread wider than the bound is reported as unresolved.
func compareFiles(parentPath, changePath string) error {
	parent, err := loadRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return err
	}
	if parent.Seconds != change.Seconds || parent.Traced != change.Traced {
		return fmt.Errorf("the two files were measured with different settings")
	}
	bad := 0
	fmt.Printf("%-12s %-34s %12s %12s %8s %8s %6s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound")
	for _, w := range workloads {
		pv, cv := parent.Values[w.name], change.Values[w.name]
		if pv == nil || cv == nil {
			continue
		}
		if change.Failed[w.name] > 0 {
			fmt.Printf("%-12s FAILED %d of %d attempted ops on the change\n", w.name, change.Failed[w.name], change.Attempted[w.name])
			bad++
		}
		for _, d := range metricDefs(parent.Traced) {
			if len(pv[d.name]) == 0 || len(cv[d.name]) == 0 {
				continue
			}
			pm, cm := median(pv[d.name]), median(cv[d.name])
			worse := (cm - pm) / pm
			if d.better == "higher" {
				worse = -worse
			}
			sp := spread(pv[d.name])
			verdict := ""
			switch {
			case d.bound == 0:
			case worse > d.bound:
				verdict = "REGRESSION"
				bad++
			case sp > d.bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-12s %-34s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%% %s\n", w.name, d.name, pm, cm, 100*worse, 100*sp, 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs regressed or failed", bad)
	}
	return nil
}
