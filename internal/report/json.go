package report

import (
	"encoding/json"
	"io"

	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/telemetry"
)

// JSONResult is the machine-readable analysis export: verdict, per-net
// slacks, per-endpoint slacks, traced paths and the pass plan. Times are
// integer picoseconds; infinite (unconstrained) slacks are omitted.
type JSONResult struct {
	Design    string           `json:"design"`
	OK        bool             `json:"ok"`
	WorstPs   int64            `json:"worstPs"`
	Cells     int              `json:"cells"`
	Nets      int              `json:"nets"`
	Elements  int              `json:"elements"`
	Clusters  int              `json:"clusters"`
	Passes    int              `json:"passes"`
	Sweeps    JSONSweeps       `json:"sweeps"`
	NetSlacks map[string]int64 `json:"netSlacksPs"`
	Endpoints []JSONEndpoint   `json:"endpoints"`
	SlowPaths []JSONPath       `json:"slowPaths,omitempty"`
	PlanByID  []JSONPlan       `json:"plan"`
	// Convergence is the fixed-point trajectory, one event per sweep.
	// Present only when the analysis ran with a convergence tracer.
	Convergence []telemetry.SweepEvent `json:"convergence,omitempty"`
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
		NetSlacks:   map[string]int64{},
		Convergence: rep.Trajectory,
	}
	for n, s := range rep.Result.NetSlack {
		if s != clock.Inf {
			out.NetSlacks[a.CD.Nets[n]] = int64(s)
		}
	}
	for ei, e := range a.CD.Elems {
		if s := rep.Result.InSlack[ei]; s != clock.Inf {
			out.Endpoints = append(out.Endpoints, JSONEndpoint{Element: e.Name(), Kind: "capture", SlackPs: int64(s)})
		}
		if s := rep.Result.OutSlack[ei]; s != clock.Inf {
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
