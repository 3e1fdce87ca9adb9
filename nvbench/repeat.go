package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs the workload k times, each in its own process with
// seeds seed … seed+k-1, and prints every metric's median, quartiles
// and interquartile range as a share of the median.
func steadiness(w workload, seed int64, seconds float64, trace, k int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "nvbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# nvbench steadiness runs=%d seeds=%d..%d %s\n", k, seed, seed+int64(k)-1,
		environment(w.name, seed, seconds, trace))
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "nvbench: run with seed %d: %v\n", s, err)
			return 1
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "nvbench: run with seed %d: %v\n", s, err)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-40s %14s %14s %14s %8s %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %14.6g %8.4f %s\n", name, q1, q2, q3, spread, units[name])
	}
	return 0
}

// lastResult parses the JSON result on the last line of a run's
// output.
func lastResult(out []byte) (jsonResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res jsonResult
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported correct=false")
	}
	return res, nil
}
