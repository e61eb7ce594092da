package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs every workload (or the one named) o.repeat times, each
// run a child process with another seed, and prints for every metric the
// median, the quartiles, their distance as a share of the median (the
// spread the acceptance criterion bounds) and the full range likewise.
func repeatRuns(o options, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadOrder
	if o.workload != "" {
		names = []string{o.workload}
	}
	defs := endToEnd
	trace := "0"
	if o.trace {
		defs, trace = perLayer, "1"
	}
	for _, name := range names {
		samples := map[string][]float64{}
		for i := 0; i < o.repeat; i++ {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, o.seed+int64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, o.seed+int64(i), err)
			}
			for k, m := range res.Metrics {
				samples[k] = append(samples[k], m.Value)
			}
		}
		fmt.Fprintf(w, "%s: %d runs, seeds %d..%d\n", name, o.repeat, o.seed, o.seed+int64(o.repeat)-1)
		fmt.Fprintf(w, "  %-32s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
		for _, d := range defs {
			xs := samples[d.Name]
			sort.Float64s(xs)
			q1, med, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %-32s %12.6g %12.6g %12.6g %8.4f %8.4f\n", d.Name, med, q1, q3,
				ratio(q3-q1, med), ratio(xs[len(xs)-1]-xs[0], med))
		}
	}
	return nil
}

// quartiles cuts sorted xs as Python's statistics.quantiles(xs, n=4)
// does (the exclusive method), which is how the acceptance spread is
// defined.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
