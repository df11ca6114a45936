// Command paperbench regenerates every experiment table of the reproduction
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// output). With no flags it prints all tables; -only selects experiments by
// id prefix (e.g. -only E4,E8). The experiment list comes from
// experiments.Registry(). It exits 1 when any table it ran recorded a
// failure (a build that errored or a layout that failed verification),
// after printing every table.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mlvlsi/internal/cli"
	"mlvlsi/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment id prefixes to run (e.g. E4,E8)")
	list := flag.Bool("list", false, "list experiment ids and titles without running")
	format := flag.String("format", "text", "output format: text | csv")
	workers := flag.Int("workers", 0, "cap the scheduler's parallelism for all experiments (0 = all cores)")
	verifyMem := flag.String("verify-mem", "", "cap the experiments' verifier working set (bytes, k/m/g suffixes; empty = no cap)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after all experiments) to this file")
	tracePath := flag.String("trace", "", "write a Chrome-trace (chrome://tracing) span file with one span per experiment run")
	flag.Parse()

	if *format != "text" && *format != "csv" {
		cli.Usagef("-format: unknown format %q; valid formats: text, csv", *format)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			cli.Usagef("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			cli.Usagef("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: -memprofile:", err)
			}
		}()
	}
	if *workers > 0 {
		// The experiment generators run builds and verifies at the default
		// full fan-out; capping GOMAXPROCS bounds them all at once.
		runtime.GOMAXPROCS(*workers)
	}
	if *verifyMem != "" {
		n, err := cli.ParseBytes("-verify-mem", *verifyMem)
		if err != nil {
			cli.Usagef("%v", err)
		}
		experiments.VerifyMemBytes = n
	}

	obsv, traceDone, err := cli.Trace(*tracePath)
	if err != nil {
		cli.Usagef("%v", err)
	}

	all := experiments.Registry()

	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var filters []string
	if *only != "" {
		filters = strings.Split(*only, ",")
	}
	matched := false
	var ran []*experiments.Table
	for _, e := range all {
		if len(filters) > 0 {
			ok := false
			for _, f := range filters {
				if strings.EqualFold(strings.TrimSpace(f), e.ID) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		matched = true
		sp := obsv.StartSpan("experiment/" + e.ID)
		tab := e.Run()
		sp.End()
		ran = append(ran, tab)
		if *format == "csv" {
			fmt.Printf("# %s — %s\n%s\n", tab.ID, tab.Title, tab.CSV())
		} else {
			fmt.Println(tab.String())
		}
	}
	if !matched {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		cli.Usagef("-only: no experiment matches %q; valid ids: %s", *only, strings.Join(ids, ", "))
	}
	if err := traceDone(); err != nil {
		cli.Failf("%v", err)
	}
	if failed := failures(ran); len(failed) > 0 {
		cli.Failf("paperbench: %d failed experiment steps:\n%s", len(failed), strings.Join(failed, "\n"))
	}
}

// failures lists every failure the tables recorded, each prefixed with its
// table's ID; paperbench exits non-zero exactly when the list is non-empty.
func failures(tabs []*experiments.Table) []string {
	var out []string
	for _, t := range tabs {
		for _, f := range t.Failures {
			out = append(out, t.ID+": "+f)
		}
	}
	return out
}
