// Metrics federation: the router scrapes each member's /metrics.json
// snapshot and re-exposes the fleet as one Prometheus exposition.
// Counters and gauges merge by sum; timers merge bucket-wise — every
// process shares the fixed histogram geometry (timerMinShift and
// timerBuckets), so the merge is element-wise addition and the merged
// percentiles are exactly what a single process observing the union
// would have reported. The federated exposition preserves per-member
// series under a replica label and adds hb_fleet_* rollup families for
// the merged values.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// MemberMetrics pairs one fleet member's snapshot with its replica id
// ("router" for the router's own instruments).
type MemberMetrics struct {
	Replica string  `json:"replica"`
	Metrics Metrics `json:"metrics"`
}

// MergeMetrics folds any number of snapshots into one, as if a single
// process had recorded them all: counters and gauges sum by name,
// timers sum Count/TotalNs and merge their fixed-geometry buckets
// element-wise, with percentiles recomputed from the merged histogram.
// A snapshot that predates bucket export (empty Buckets) still
// contributes Count and TotalNs.
func MergeMetrics(members ...Metrics) Metrics {
	out := Metrics{
		Counters: map[string]int64{},
		Timers:   map[string]TimerStats{},
	}
	for _, m := range members {
		out.Enabled = out.Enabled || m.Enabled
		for name, v := range m.Counters {
			out.Counters[name] += v
		}
		for name, v := range m.Gauges {
			if out.Gauges == nil {
				out.Gauges = map[string]float64{}
			}
			out.Gauges[name] += v
		}
		for name, ts := range m.Timers {
			acc := out.Timers[name]
			acc.Count += ts.Count
			acc.TotalNs += ts.TotalNs
			if len(ts.Buckets) > 0 && acc.Buckets == nil {
				acc.Buckets = make([]int64, timerBuckets+1)
			}
			for i, c := range ts.Buckets {
				if i < len(acc.Buckets) {
					acc.Buckets[i] += c
				}
			}
			out.Timers[name] = acc
		}
	}
	for name, ts := range out.Timers {
		var cs [timerBuckets + 1]int64
		copy(cs[:], ts.Buckets)
		ts.P50Ns = percentile(cs, ts.Count, 0.50)
		ts.P90Ns = percentile(cs, ts.Count, 0.90)
		ts.P99Ns = percentile(cs, ts.Count, 0.99)
		out.Timers[name] = ts
	}
	return out
}

// fleetName maps an instrument name to its rollup family name:
// "fleet.requests_routed" → "hb_fleet_fleet_requests_routed". The
// per-member families keep their ordinary promName, so the two
// namespaces cannot collide.
func fleetName(instrument string) string {
	return "hb_fleet_" + strings.TrimPrefix(promName(instrument), "hb_")
}

// WriteFederated renders the fleet exposition: for every instrument
// family, one labelled sample per member (replica="<id>") followed by
// an hb_fleet_* rollup family carrying the merged value. Members render
// in the order given; callers sort for a deterministic exposition.
// Constant labels (SetConstLabels) are ignored here — the replica label
// is explicit.
func WriteFederated(w io.Writer, members []MemberMetrics) error {
	bw := bufio.NewWriter(w)
	merged := MergeMetrics(metricsOf(members)...)

	fmt.Fprintf(bw, "# HELP hb_fleet_federated_members Members aggregated into this exposition.\n")
	fmt.Fprintf(bw, "# TYPE hb_fleet_federated_members gauge\nhb_fleet_federated_members %d\n", len(members))

	lbl := func(replica string) string {
		return fmt.Sprintf("{replica=%q}", replica)
	}

	for _, name := range sortedKeys(merged.Counters) {
		n := promName(name) + "_total"
		fmt.Fprintf(bw, "# HELP %s Event count for %s.\n# TYPE %s counter\n", n, name, n)
		for _, m := range members {
			if v, ok := m.Metrics.Counters[name]; ok {
				fmt.Fprintf(bw, "%s%s %d\n", n, lbl(m.Replica), v)
			}
		}
		fn := fleetName(name) + "_total"
		fmt.Fprintf(bw, "# HELP %s Fleet-wide event count for %s.\n# TYPE %s counter\n%s %d\n",
			fn, name, fn, fn, merged.Counters[name])
	}

	for _, name := range sortedKeys(merged.Gauges) {
		n := promName(name)
		fmt.Fprintf(bw, "# HELP %s Gauge %s.\n# TYPE %s gauge\n", n, name, n)
		for _, m := range members {
			if v, ok := m.Metrics.Gauges[name]; ok {
				fmt.Fprintf(bw, "%s%s %s\n", n, lbl(m.Replica), formatFloat(v))
			}
		}
		fn := fleetName(name)
		fmt.Fprintf(bw, "# HELP %s Fleet-wide sum of gauge %s.\n# TYPE %s gauge\n%s %s\n",
			fn, name, fn, fn, formatFloat(merged.Gauges[name]))
	}

	for _, name := range sortedKeys(merged.Timers) {
		n := promName(name) + "_seconds"
		fmt.Fprintf(bw, "# HELP %s Duration histogram for %s.\n# TYPE %s histogram\n", n, name, n)
		for _, m := range members {
			if ts, ok := m.Metrics.Timers[name]; ok {
				writeHistogram(bw, n, lbl(m.Replica), ts)
			}
		}
		fn := fleetName(name) + "_seconds"
		fmt.Fprintf(bw, "# HELP %s Fleet-wide duration histogram for %s.\n# TYPE %s histogram\n", fn, name, fn)
		writeHistogram(bw, fn, "", merged.Timers[name])
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series (bucket lines cumulative,
// then _sum and _count) with the given pre-rendered label set. A stats
// value without bucket detail still renders a valid histogram: only the
// +Inf bucket, carrying the full count.
func writeHistogram(w io.Writer, name, labels string, ts TimerStats) {
	bucketLbl := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return labels[:len(labels)-1] + fmt.Sprintf(",le=%q}", le)
	}
	cum := int64(0)
	if len(ts.Buckets) > 0 {
		for i := 0; i < timerBuckets && i < len(ts.Buckets); i++ {
			cum += ts.Buckets[i]
			le := formatFloat(float64(int64(1)<<(timerMinShift+i)) / 1e9)
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLbl(le), cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLbl("+Inf"), ts.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(float64(ts.TotalNs)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, ts.Count)
}

func metricsOf(members []MemberMetrics) []Metrics {
	out := make([]Metrics, len(members))
	for i, m := range members {
		out[i] = m.Metrics
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
