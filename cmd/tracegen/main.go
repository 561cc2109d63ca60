// Command tracegen emits a synthetic LTE event trace in the structure of
// the paper's bearer-level dataset (§7.1: radio bearer creation, UE
// arrival, handover events for a metropolitan network), as CSV on stdout:
//
//	tracegen -bs 200 -from 720 -to 725 -scale 0.05 > trace.csv
//
// Columns: offset_ms,kind,ue,bs,target_bs,qos
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ltetrace"
)

func main() {
	seed := flag.Int64("seed", 42, "random seed")
	bs := flag.Int("bs", 200, "base station count")
	from := flag.Int("from", 12*60, "start minute of trace (0 = midnight)")
	to := flag.Int("to", 12*60+5, "end minute of trace")
	scale := flag.Float64("scale", 0.05, "rate thinning factor (0,1]")
	groups := flag.Bool("groups", false, "emit the inferred BS groups instead of events")
	flag.Parse()

	model := ltetrace.New(ltetrace.Params{Seed: *seed, NumBS: *bs})
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	if *groups {
		// Inferred groups are rings (§7.1); the column keeps the format.
		fmt.Fprintln(w, "group,topology,members")
		for _, g := range model.Groups {
			fmt.Fprintf(w, "%s,ring,", g.ID)
			for i, m := range g.Members() {
				if i > 0 {
					fmt.Fprint(w, ";")
				}
				fmt.Fprint(w, m)
			}
			fmt.Fprintln(w)
		}
		return
	}

	events := model.SampleEvents(*from, *to, *scale)
	fmt.Fprintln(w, "offset_ms,kind,ue,bs,target_bs,qos")
	for _, e := range events {
		fmt.Fprintf(w, "%d,%s,%s,%s,%s,%d\n",
			e.At/time.Millisecond, e.Kind, e.UE, e.BS, e.Target, e.QoS)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d events over minutes [%d,%d) at scale %.3f\n",
		len(events), *from, *to, *scale)
}
