package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// record is one line of a run set: a run's result line tagged with
// its workload and seed (runs.sh writes these).
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// declared is the part of BENCHMARK.json the comparison needs.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] BASE.jsonl CHANGE.jsonl")
		return 2
	}
	var decl declared
	if err := readJSON(*benchPath, &decl); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	a, err := readRecords(fs.Arg(0))
	if err == nil {
		var b map[string][]record
		if b, err = readRecords(fs.Arg(1)); err == nil {
			err = compareSets(decl, a, b, stdout)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	return 0
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readRecords groups a run set's records by workload, in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	return out, sc.Err()
}

// verdict applies the pairwise rules for noisy small machines: a
// gain needs the change to win nine tenths of the pairs by more than
// the base's own quartile spread; a spread wider than the bound leaves
// the metric unresolved unless every change run beats every base run.
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	spreadA        float64 // (q3-q1)/median of the base set
	spreadB        float64
	worseBy        float64 // share of the base median by which B is worse
	winFrac        float64 // pairs the change wins, ties counting for neither
	pairs          int
	call           string
}

func judge(a, b []float64, lowerBetter bool, bound float64) verdict {
	v := verdict{}
	v.q1A, v.medA, v.q3A = quartiles(a)
	v.q1B, v.medB, v.q3B = quartiles(b)
	v.spreadA = ratio(v.q3A-v.q1A, math.Abs(v.medA))
	v.spreadB = ratio(v.q3B-v.q1B, math.Abs(v.medB))
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	v.pairs = min(len(a), len(b))
	wins := 0
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	v.winFrac = ratio(float64(wins), float64(v.pairs))
	v.worseBy = ratio(v.medB-v.medA, math.Abs(v.medA))
	if !lowerBetter {
		v.worseBy = -v.worseBy
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case v.winFrac >= 0.9 && math.Abs(v.medB-v.medA) > v.q3A-v.q1A && better(v.medB, v.medA):
		v.call = "improved"
	case (v.spreadA > bound || v.spreadB > bound) && !allBetter:
		v.call = "unresolved"
	case v.worseBy > bound:
		v.call = "worse"
	default:
		v.call = "no worse"
	}
	return v
}

func compareSets(decl declared, a, b map[string][]record, w io.Writer) error {
	if len(decl.EndToEnd) == 0 {
		return fmt.Errorf("no end_to_end metrics declared")
	}
	var names []string
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1,q3]\tchange median [q1,q3]\tspread base\tspread change\tworse by\tbound\tpair wins\tverdict\t")
	for _, wl := range names {
		ra, rb := a[wl], b[wl]
		if len(rb) == 0 {
			return fmt.Errorf("workload %s: no runs in the second set", wl)
		}
		for _, m := range decl.EndToEnd {
			xa, err := values(ra, m.Name)
			if err != nil {
				return err
			}
			xb, err := values(rb, m.Name)
			if err != nil {
				return err
			}
			v := judge(xa, xb, m.Better == "lower", m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g,%.4g]\t%.4g [%.4g,%.4g]\t%.3f\t%.3f\t%+.3f\t%.2f\t%d/%d\t%s\t\n",
				wl, m.Name, v.medA, v.q1A, v.q3A, v.medB, v.q1B, v.q3B, v.spreadA, v.spreadB,
				v.worseBy, m.Bound, int(math.Round(v.winFrac*float64(v.pairs))), v.pairs, v.call)
		}
		fa, fb := failures(ra), failures(rb)
		fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d\t%d/%d\t\t\t\t\t\t\t\n", wl, fa[0], fa[1], fb[0], fb[1])
	}
	return tw.Flush()
}

func values(recs []record, name string) ([]float64, error) {
	out := make([]float64, len(recs))
	for i, r := range recs {
		m, ok := r.Result.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("workload %s seed %d: no metric %s", r.Workload, r.Seed, name)
		}
		out[i] = m.Value
	}
	return out, nil
}

func failures(recs []record) [2]int64 {
	var f [2]int64
	for _, r := range recs {
		f[0] += r.Result.Failed
		f[1] += r.Result.Attempted
	}
	return f
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), the form the benchmark's steadiness rule uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}
