package report

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

// mapJSONResult is JSONResult with netSlacksPs as the name-keyed map it
// was: encoding/json sorts a map's keys, so its output is the reference
// the ordered NetSlacks encoding must reproduce byte for byte.
type mapJSONResult struct {
	Design      string                 `json:"design"`
	OK          bool                   `json:"ok"`
	WorstPs     int64                  `json:"worstPs"`
	Cells       int                    `json:"cells"`
	Nets        int                    `json:"nets"`
	Elements    int                    `json:"elements"`
	Clusters    int                    `json:"clusters"`
	Passes      int                    `json:"passes"`
	Sweeps      JSONSweeps             `json:"sweeps"`
	NetSlacks   map[string]int64       `json:"netSlacksPs"`
	Endpoints   []JSONEndpoint         `json:"endpoints"`
	SlowPaths   []JSONPath             `json:"slowPaths,omitempty"`
	PlanByID    []JSONPlan             `json:"plan"`
	Convergence []telemetry.SweepEvent `json:"convergence,omitempty"`
}

// mapEncoding encodes r the way WriteJSON did with a map of net slacks.
func mapEncoding(t *testing.T, r *JSONResult) []byte {
	t.Helper()
	m := mapJSONResult{
		Design: r.Design, OK: r.OK, WorstPs: r.WorstPs, Cells: r.Cells, Nets: r.Nets,
		Elements: r.Elements, Clusters: r.Clusters, Passes: r.Passes, Sweeps: r.Sweeps,
		NetSlacks: map[string]int64{}, Endpoints: r.Endpoints, SlowPaths: r.SlowPaths,
		PlanByID: r.PlanByID, Convergence: r.Convergence,
	}
	for _, ns := range r.NetSlacks {
		m.NetSlacks[ns.Net] = ns.SlackPs
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// escapeNames is a buffer chain into a flip-flop whose nets are named
// with every character class JSON string encoding treats specially —
// HTML-escaped <, > and &, the quote and backslash escapes, a non-ASCII
// rune and the U+2028 line separator — and with JSON punctuation inside
// a name.
func escapeNames() *netlist.Design {
	d := netlist.New("escapes")
	d.AddClock(clock.Signal{Name: "phi", Period: 20 * clock.Ns, RiseAt: 0, FallAt: 8 * clock.Ns})
	d.AddPort(netlist.Port{Name: "IN", Dir: netlist.Input, RefClock: "phi", RefEdge: clock.Rise})
	d.AddPort(netlist.Port{Name: "OUT", Dir: netlist.Output, RefClock: "phi", RefEdge: clock.Fall})
	nets := []string{"IN", "a<b", "c>d", "e&f", `g"h`, `i\j`, "kλ", "l\u2028m", `n{[,:]}"\`}
	for i := 1; i < len(nets); i++ {
		d.AddInstance(netlist.Instance{Name: "g" + string(rune('0'+i)), Ref: "BUF_X1",
			Conns: map[string]string{"A": nets[i-1], "Y": nets[i]}})
	}
	d.AddInstance(netlist.Instance{Name: "f1", Ref: "DFF_X1",
		Conns: map[string]string{"D": nets[len(nets)-1], "CK": "phi", "Q": "q<&>"}})
	d.AddInstance(netlist.Instance{Name: "g9", Ref: "INV_X1", Conns: map[string]string{"A": "q<&>", "Y": "OUT"}})
	return d
}

// TestNetSlacksMatchMapEncoding holds WriteJSON's output to the map
// encoding on every workload generator and on the escape-heavy names, and
// reads the slacks back in the same order.
func TestNetSlacksMatchMapEncoding(t *testing.T) {
	must := func(d *netlist.Design, err error) *netlist.Design {
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	designs := []*netlist.Design{
		must(workload.DES()), must(workload.ALU()), workload.SM1F(), workload.SM1H(),
		workload.Figure1(), must(workload.DESGated()), must(workload.DESMultiFreq()),
		must(workload.Pipeline(workload.PipeConfig{Name: "pipe", Stages: 3, Width: 4, Depth: 3, Latch: "DLATCH_X1", Seed: 7})),
		must(workload.SoC(4, 2, 2, 1)), must(workload.SoCCells(2000, 3)), must(workload.Scaling(1500, 5)),
		escapeNames(),
	}
	lib := celllib.Default()
	for _, d := range designs {
		a, err := core.Load(lib, d, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		var got bytes.Buffer
		if err := WriteJSON(&got, a, rep); err != nil {
			t.Fatal(err)
		}
		built := BuildJSON(a, rep)
		if want := mapEncoding(t, built); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: report differs from the map encoding (%d vs %d bytes)", d.Name, got.Len(), len(want))
		}
		var back JSONResult
		if err := json.Unmarshal(got.Bytes(), &back); err != nil {
			t.Fatal(err)
		}
		if len(built.NetSlacks) == 0 || !slices.Equal(back.NetSlacks, built.NetSlacks) {
			t.Fatalf("%s: %d net slacks read back, want %d in order", d.Name, len(back.NetSlacks), len(built.NetSlacks))
		}
	}
}
