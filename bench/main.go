// Command bench is the repo's benchmark: four workloads against the
// SoftMoW controller tree, each run in a process of its own, measured
// from outside the program by timing calls into its public functions and
// reading the counters it already exports. See README.md.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh [-seed N] [-seconds S] [-trace 1] [-out F]   # all four
//	bash bench/run.sh -layers
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run in this process: mixed_pipe | bearer_direct | tree_tcp | flap_repair (empty = each in a child process)")
		seed     = flag.Int64("seed", 1, "schedule seed, the only input to the generated ops")
		seconds  = flag.Float64("seconds", 15, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
		scale    = flag.Float64("scale", 1, "shrink populations and warm-ups by this factor (smoke runs)")
		out      = flag.String("out", "", "append one JSON line per run to this file (input of -compare)")
		layers   = flag.Bool("layers", false, "run only the isolated probes, 1 s each")
		describe = flag.Bool("describe", false, "print BENCHMARK.json as the program's tables define it")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare parent.jsonl change.jsonl")
		outDir   = flag.String("trace-dir", "bench/out", "directory a traced run writes its span file to")
	)
	flag.Parse()

	switch {
	case *describe:
		return printBenchmarkJSON()
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare parent.jsonl change.jsonl")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *layers:
		return probesOnly()
	case *name == "":
		return runAll()
	}

	sp, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	rec, err := runWorkload(runOpts{
		spec: sp, seed: *seed, scale: *scale, traced: *trace == 1,
		window: time.Duration(*seconds * float64(time.Second)),
		probe:  tracedProbe, outDir: *outDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rec.print(os.Stdout)
	if *out != "" {
		if err := appendJSONLine(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The contract's result: the last line of standard output.
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(last))
	if !rec.Correct {
		return 1
	}
	return 0
}

// printBenchmarkJSON renders BENCHMARK.json from the workload and metric
// tables, so the file the driver reads is never edited by hand.
func printBenchmarkJSON() int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, wl{s.name, s.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a child process of its own — a fresh
// heap, fresh counters and fresh connection state per run — passing its
// own flags through.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		pass = append(pass, "-"+f.Name+"="+f.Value.String())
	})
	status := 0
	for _, sp := range specs {
		cmd := exec.Command(self, append([]string{"-workload=" + sp.name}, pass...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			status = 1
		}
	}
	return status
}
