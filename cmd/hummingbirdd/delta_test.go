package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/incremental"
	"hummingbird/internal/netlist"
	"hummingbird/internal/workload"
)

// slacksByName is the reference snapshot of the name-keyed delta
// algorithm: net name → slack after the engine's last analysis.
func slacksByName(eng *incremental.Engine) map[string]clock.Time {
	rep := eng.Report()
	if rep == nil {
		return nil
	}
	nets := eng.Analyzer().CD.Nets
	m := make(map[string]clock.Time, len(nets))
	for i, name := range nets {
		m[name] = rep.Result.NetSlack(i)
	}
	return m
}

// deltasByName is the name-keyed delta algorithm: every net of the
// current table is looked up by name in the previous snapshot, and the
// moved ones are listed tightest new slack first, capped at 20 entries.
// The handler's changed_nets must reproduce it exactly.
func deltasByName(prev map[string]clock.Time, eng *incremental.Engine) []map[string]any {
	rep := eng.Report()
	if rep == nil {
		return nil
	}
	type delta struct {
		net      string
		now, was clock.Time
		hasWas   bool
	}
	var ds []delta
	for i, name := range eng.Analyzer().CD.Nets {
		now := rep.Result.NetSlack(i)
		was, ok := prev[name]
		if ok && was == now {
			continue
		}
		if !ok && now == clock.Inf {
			continue
		}
		ds = append(ds, delta{net: name, now: now, was: was, hasWas: ok})
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].now != ds[j].now {
			return ds[i].now < ds[j].now
		}
		return ds[i].net < ds[j].net
	})
	total := len(ds)
	if total > 20 {
		ds = ds[:20]
	}
	out := make([]map[string]any, 0, len(ds)+1)
	for _, d := range ds {
		m := map[string]any{"net": d.net, "slack": timeJSON(d.now)}
		if d.hasWas {
			m["was"] = timeJSON(d.was)
		}
		out = append(out, m)
	}
	if total > len(ds) {
		out = append(out, map[string]any{"truncated": total - len(ds)})
	}
	return out
}

// TestChangedNetsMatchNameKeyed drives one DES session through delay
// edits, a rejected edit, a close and reopen and two add/remove topology
// batches, each followed by a delay edit. Each accepted edit's
// changed_nets must equal what the name-keyed algorithm gives against the
// slacks of the last accepted analysis; the keepsTable column pins which
// steps take the by-index path (the net table survives) and which the
// by-name one (a rebuild or a reopen replaced it).
func TestChangedNetsMatchNameKeyed(t *testing.T) {
	srv := newServer(celllib.Default(), serverConfig{maxSessions: 4})
	h := srv.handler()
	design := designText(t, workload.DES)
	id := do(t, h, "POST", "/v1/sessions", mustJSON(t, map[string]any{"design": design}), http.StatusCreated)["session"].(string)
	adjust := func(inst, delta string) []map[string]any {
		return []map[string]any{{"op": "adjust", "inst": inst, "delta": delta}}
	}
	const other = "g_s3l1w20"
	steps := []struct {
		name       string
		edits      []map[string]any // nil: close the session and reopen it
		status     int
		keepsTable bool
	}{
		{"delay", adjust(desGate, "100ps"), http.StatusOK, true},
		{"delay again", adjust(other, "-300ps"), http.StatusOK, true},
		{"rejected", adjust("no_such_gate", "100ps"), http.StatusUnprocessableEntity, true},
		{"delay after rejection", adjust(desGate, "250ps"), http.StatusOK, true},
		{"close/reopen", nil, http.StatusCreated, false},
		{"delay after reopen", adjust(other, "300ps"), http.StatusOK, true},
		{"topology", []map[string]any{
			{"op": "add", "inst": "tap_a", "ref": "BUF_X1", "conns": map[string]string{"A": "s7l2w11", "Y": "tap_a_y"}},
			{"op": "add", "inst": "tap_b", "ref": "BUF_X4", "conns": map[string]string{"A": "s3l1w20", "Y": "tap_b_y"}},
			{"op": "remove", "inst": "tap_a"},
		}, http.StatusOK, false},
		{"delay after topology", adjust(desGate, "-350ps"), http.StatusOK, true},
		// Same net count, but a_tap_y sorts first and tap_b_y goes: every
		// net between them moves up one index.
		{"renumbering topology", []map[string]any{
			{"op": "add", "inst": "a_tap", "ref": "BUF_X4", "conns": map[string]string{"A": "s7l2w11", "Y": "a_tap_y"}},
			{"op": "remove", "inst": "tap_b"},
		}, http.StatusOK, false},
		{"delay after renumbering", adjust(other, "100ps"), http.StatusOK, true},
	}
	// adjustments mirrors the session's cumulative adjustments, so the
	// reopen elaborates the closed session's state.
	adjustments := map[string]clock.Time{}
	for _, st := range steps {
		ss := srv.session(id)
		ss.mu.Lock()
		prev, table := slacksByName(ss.eng), ss.eng.Analyzer().CD.Nets
		ss.mu.Unlock()

		var resp map[string]any
		if st.edits == nil {
			do(t, h, "DELETE", "/v1/sessions/"+id, "", http.StatusOK)
			adj := map[string]string{}
			for inst, d := range adjustments {
				adj[inst] = fmt.Sprintf("%dps", int64(d))
			}
			resp = do(t, h, "POST", "/v1/sessions", mustJSON(t, map[string]any{"design": design, "adjustments": adj}), st.status)
			id = resp["session"].(string)
		} else {
			resp = do(t, h, "POST", "/v1/sessions/"+id+"/edits", mustJSON(t, map[string]any{"edits": st.edits}), st.status)
		}
		ss = srv.session(id)
		ss.mu.Lock()
		if got := sameNetTable(table, ss.eng.Analyzer().CD.Nets); got != st.keepsTable {
			t.Errorf("%s: net table kept = %v, want %v", st.name, got, st.keepsTable)
		}
		var want []map[string]any
		switch {
		case st.status == http.StatusOK:
			want = deltasByName(prev, ss.eng)
		case st.edits == nil:
			if moved := deltasByName(prev, ss.eng); len(moved) != 0 {
				t.Errorf("%s: the reopened session's slacks differ from the closed one's: %v", st.name, moved)
			}
		}
		ss.mu.Unlock()

		if st.status != http.StatusOK {
			if _, ok := resp["changed_nets"]; ok {
				t.Errorf("%s: a %d response carries changed_nets: %v", st.name, st.status, resp)
			}
			continue
		}
		for _, ed := range st.edits {
			if ed["op"] == "adjust" {
				d, err := netlist.ParseTime(ed["delta"].(string))
				if err != nil {
					t.Fatal(err)
				}
				adjustments[ed["inst"].(string)] += d
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: the edit moved no net slack", st.name)
		}
		var wantJSON []any
		if err := json.Unmarshal([]byte(mustJSON(t, want)), &wantJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp["changed_nets"], wantJSON) {
			t.Errorf("%s: changed_nets\n got  %v\n want %v", st.name, resp["changed_nets"], wantJSON)
		}
	}
}
