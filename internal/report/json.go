package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/telemetry"
)

// JSONResult is the machine-readable analysis export: verdict, per-net
// slacks, per-endpoint slacks, traced paths and the pass plan. Times are
// integer picoseconds; infinite (unconstrained) slacks are omitted.
type JSONResult struct {
	Design    string         `json:"design"`
	OK        bool           `json:"ok"`
	WorstPs   int64          `json:"worstPs"`
	Cells     int            `json:"cells"`
	Nets      int            `json:"nets"`
	Elements  int            `json:"elements"`
	Clusters  int            `json:"clusters"`
	Passes    int            `json:"passes"`
	Sweeps    JSONSweeps     `json:"sweeps"`
	NetSlacks NetSlacks      `json:"netSlacksPs"`
	Endpoints []JSONEndpoint `json:"endpoints"`
	SlowPaths []JSONPath     `json:"slowPaths,omitempty"`
	PlanByID  []JSONPlan     `json:"plan"`
	// Convergence is the fixed-point trajectory, one event per sweep.
	// Present only when the analysis ran with a convergence tracer.
	Convergence []telemetry.SweepEvent `json:"convergence,omitempty"`
}

// NetSlacks is the netSlacksPs object: finite per-net slacks in net-id
// order. Net ids follow sorted net names, so it encodes as the JSON object
// a name-keyed map would — the same keys in the same order — without a
// map or a key sort.
type NetSlacks []NetSlack

// NetSlack is one net's slack.
type NetSlack struct {
	Net     string
	SlackPs int64
}

// MarshalJSON writes the object in slice order. Names made only of
// printable ASCII needing no escape are copied verbatim; others go through
// encoding/json's string encoder (HTML-safe, as the report encoder is).
func (s NetSlacks) MarshalJSON() ([]byte, error) {
	size := 2
	for _, ns := range s {
		size += len(ns.Net) + 24
	}
	b := make([]byte, 0, size)
	b = append(b, '{')
	for i, ns := range s {
		if i > 0 {
			b = append(b, ',')
		}
		if plainJSON(ns.Net) {
			b = append(b, '"')
			b = append(b, ns.Net...)
			b = append(b, '"')
		} else {
			q, err := json.Marshal(ns.Net)
			if err != nil {
				return nil, err
			}
			b = append(b, q...)
		}
		b = append(b, ':')
		b = strconv.AppendInt(b, ns.SlackPs, 10)
	}
	return append(b, '}'), nil
}

// plainJSON reports whether s encodes as a JSON string unchanged.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// UnmarshalJSON reads the object back in document order.
func (s *NetSlacks) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return err
	}
	if tok != json.Delim('{') {
		return fmt.Errorf("report: netSlacksPs: want an object, got %v", tok)
	}
	out := (*s)[:0]
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		ns := NetSlack{Net: key.(string)}
		if err := dec.Decode(&ns.SlackPs); err != nil {
			return err
		}
		out = append(out, ns)
	}
	*s = out
	_, err = dec.Token()
	return err
}

// JSONSweeps records the Algorithm 1 iteration counts.
type JSONSweeps struct {
	Forward  int `json:"forward"`
	Backward int `json:"backward"`
}

// JSONEndpoint is one synchronising-element terminal and its slack.
type JSONEndpoint struct {
	Element string `json:"element"`
	Kind    string `json:"terminal"` // "capture" or "launch"
	SlackPs int64  `json:"slackPs"`
}

// JSONPath is one traced path.
type JSONPath struct {
	From    string   `json:"from"`
	To      string   `json:"to"`
	SlackPs int64    `json:"slackPs"`
	DelayPs int64    `json:"delayPs"`
	Cluster int      `json:"cluster"`
	Pass    int      `json:"pass"`
	Nets    []string `json:"nets"`
	Insts   []string `json:"insts"`
}

// JSONPlan is one cluster's break-open plan.
type JSONPlan struct {
	Cluster  int     `json:"cluster"`
	NetCount int     `json:"nets"`
	Passes   []int64 `json:"breaksPs"`
	Greedy   bool    `json:"greedy,omitempty"`
}

// BuildJSON assembles the export structure.
func BuildJSON(a *core.Analyzer, rep *core.Report) *JSONResult {
	st := a.Design.CellStats(a.Lib)
	out := &JSONResult{
		Design: a.Design.Name, OK: rep.OK, WorstPs: int64(rep.WorstSlack()),
		Cells: st.Cells, Nets: len(a.CD.Nets),
		Elements: len(a.CD.Elems), Clusters: len(a.CD.Clusters),
		Passes:      a.CD.TotalPasses(),
		Sweeps:      JSONSweeps{Forward: rep.ForwardSweeps, Backward: rep.BackwardSweeps},
		NetSlacks:   make(NetSlacks, 0, rep.Result.NumNets()),
		Endpoints:   make([]JSONEndpoint, 0, 2*len(a.CD.Elems)),
		Convergence: rep.Trajectory,
	}
	for n := range rep.Result.NumNets() {
		if s := rep.Result.NetSlack(n); s != clock.Inf {
			out.NetSlacks = append(out.NetSlacks, NetSlack{Net: a.CD.Nets[n], SlackPs: int64(s)})
		}
	}
	for ei, e := range a.CD.Elems {
		if s := rep.Result.InSlack(ei); s != clock.Inf {
			out.Endpoints = append(out.Endpoints, JSONEndpoint{Element: e.Name(), Kind: "capture", SlackPs: int64(s)})
		}
		if s := rep.Result.OutSlack(ei); s != clock.Inf {
			out.Endpoints = append(out.Endpoints, JSONEndpoint{Element: e.Name(), Kind: "launch", SlackPs: int64(s)})
		}
	}
	for _, p := range rep.SlowPaths {
		jp := JSONPath{
			From: a.CD.Elems[p.FromElem].Name(), To: a.CD.Elems[p.ToElem].Name(),
			SlackPs: int64(p.Slack), DelayPs: int64(p.Delay),
			Cluster: p.Cluster, Pass: p.Pass, Insts: p.Insts,
		}
		for _, n := range p.Nets {
			jp.Nets = append(jp.Nets, a.CD.Nets[n])
		}
		out.SlowPaths = append(out.SlowPaths, jp)
	}
	for _, cl := range a.CD.Clusters {
		jp := JSONPlan{Cluster: cl.ID, NetCount: len(cl.Nets), Greedy: !cl.Plan.Exhaustive}
		for _, b := range cl.Plan.Breaks {
			jp.Passes = append(jp.Passes, int64(b))
		}
		out.PlanByID = append(out.PlanByID, jp)
	}
	return out
}

// WriteJSON serialises the analysis result as indented JSON.
func WriteJSON(w io.Writer, a *core.Analyzer, rep *core.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildJSON(a, rep))
}
