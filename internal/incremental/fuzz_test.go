package incremental

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/report"
	"hummingbird/internal/workload"
)

// fuzzBytes hands out the fuzzer's input one byte at a time, zeros once it
// runs dry.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzDesign builds the design the input's first bytes pick: a latch
// pipeline whose period, from 2 to 7 ns, ranges from slow paths through
// borrowing over several sweeps to slack to spare, or a 1–4-block SoC,
// whose delay edits move offsets and replay the previous edit's sweeps.
// The first byte's low bit picks the family and its other bits the clock
// scale: 0 keeps the clocks, n scales them to 100−n% (down to 20%), where
// the SoCs fail and their fixed points run tens of sweeps.
func fuzzDesign(in *fuzzBytes) (*netlist.Design, error) {
	b := in.next()
	var d *netlist.Design
	var err error
	if b%2 == 0 {
		d, err = workload.Pipeline(workload.PipeConfig{
			Name: "fz", Stages: 2 + in.next()%4, Width: 2 + in.next()%4, Depth: 1 + in.next()%3,
			Latch: "DLATCH_X1", Seed: int64(in.next()),
			Period: clock.Time(2000+20*in.next()) * clock.Ps,
		})
	} else {
		blocks := 1 + in.next()%4
		d, err = workload.SoC(blocks, 1+in.next()%blocks, 1+in.next()%2, int64(in.next()))
	}
	if err != nil || b>>1 == 0 {
		return d, err
	}
	return core.ScaleClocks(d, int64(100-(b>>1)%81), 100)
}

// fuzzBatch draws one batch of one to three edits: adjusts, drive-strength
// resizes to a twin, and now and then a buffer added on a data net or the
// last added one removed.
func fuzzBatch(in *fuzzBytes, eng *Engine, added *[]string) []Edit {
	d := eng.Design()
	lib := eng.Analyzer().Lib
	removed := map[string]bool{} // earlier in this batch
	comb := func() string {
		for tries := 0; tries < len(d.Instances); tries++ {
			inst := &d.Instances[(in.next()<<8|in.next())%len(d.Instances)]
			if c := lib.Cell(inst.Ref); c != nil && !c.IsSync() && !removed[inst.Name] {
				return inst.Name
			}
		}
		return ""
	}
	var batch []Edit
	for n := 1 + in.next()%3; n > 0; n-- {
		switch k := in.next() % 8; {
		case k < 4:
			if name := comb(); name != "" {
				batch = append(batch, Edit{Op: Adjust, Inst: name, Delta: clock.Time(in.next()-128) * 3})
			}
		case k < 6:
			if name := comb(); name != "" {
				if to := resizeAlternative(eng, d.Instances[eng.instIdx[name]].Ref); to != "" {
					batch = append(batch, Edit{Op: Resize, Inst: name, To: to})
				}
			}
		case k == 6:
			src := comb()
			if src == "" {
				continue
			}
			out := lib.Cell(d.Instances[eng.instIdx[src]].Ref).Outputs()
			net, ok := d.Instances[eng.instIdx[src]].Conns[out[0]]
			if !ok {
				continue
			}
			name := fmt.Sprintf("fz_tap%d", len(*added))
			*added = append(*added, name)
			batch = append(batch, Edit{Op: AddInst, New: &netlist.Instance{
				Name: name, Ref: "BUF_X1", Conns: map[string]string{"A": net, "Y": name + "_y"}}})
		default:
			if len(*added) > 0 {
				name := (*added)[len(*added)-1]
				*added = (*added)[:len(*added)-1]
				removed[name] = true
				batch = append(batch, Edit{Op: RemoveInst, Inst: name})
			}
		}
	}
	return batch
}

// encodeReport is report.WriteJSON's bytes.
func encodeReport(t *testing.T, a *core.Analyzer, rep *core.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, a, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEditReplay replays fuzzer-chosen edit batches on a small design.
// After every batch the engine's report must encode to the bytes of a
// fresh core.Load plus Algorithm 1 on its design and cumulative options,
// and its Algorithm 2 constraints must deep-equal the fresh ones, and its
// running topology checksum must equal a full rehash; a batch the engine
// refuses must leave it exactly as it was. At the end every
// report the engine handed out must still encode to its bytes at
// publication: results share write-once segments, so a later edit that
// wrote one would show here. The committed seeds (testdata/fuzz) cover
// both design families with all four edit kinds: a pipeline borrowing
// over several sweeps, a pipeline too slow for its clock whose Algorithm
// 2 snatches move offsets, a SoC whose delay edits replay the previous
// edit's sweep, and SoC(4, 4, 2, 27) at 22% of its clock, whose fixed
// points run over a hundred backward sweeps.
func FuzzEditReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		d, err := fuzzDesign(&in)
		if err != nil {
			t.Skip(err)
		}
		lib := celllib.Default()
		eng, err := Open(lib, d, core.DefaultOptions())
		if err != nil {
			t.Skip(err)
		}
		type published struct {
			a    *core.Analyzer
			rep  *core.Report
			json []byte
		}
		pubs := []published{{eng.Analyzer(), eng.Report(), encodeReport(t, eng.Analyzer(), eng.Report())}}
		var added []string
		for b := 0; b < 6 && len(in) > 0; b++ {
			before := slices.Clone(added)
			batch := fuzzBatch(&in, eng, &added)
			if len(batch) == 0 {
				continue
			}
			if _, err := eng.Apply(batch...); err != nil {
				var nc *core.NonConvergenceError
				if !errors.As(err, &nc) {
					t.Fatalf("batch %d %v: %v", b, batch, err)
				}
				// Refused atomically: the engine must still match its
				// previous design, checked below like any batch.
				added = before
			}
			checkChecksum(t, eng, fmt.Sprintf("batch %d %v", b, batch))
			fresh, err := core.Load(lib, eng.Design(), eng.Options())
			if err != nil {
				t.Fatalf("batch %d: fresh load: %v", b, err)
			}
			rep, err := fresh.IdentifySlowPaths()
			if err != nil {
				t.Fatalf("batch %d: fresh analysis: %v", b, err)
			}
			got := encodeReport(t, eng.Analyzer(), eng.Report())
			if want := encodeReport(t, fresh, rep); !bytes.Equal(got, want) {
				t.Fatalf("batch %d %v: engine report differs from a fresh load's", b, batch)
			}
			// Algorithm 2 may not converge on a design with slow paths;
			// then both must fail alike, trailing sweeps included.
			cons, err := eng.Constraints()
			want, werr := fresh.GenerateConstraints()
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("batch %d %v: engine constraints fail with %v, a fresh load's with %v", b, batch, err, werr)
			}
			if !reflect.DeepEqual(cons, want) {
				t.Fatalf("batch %d %v: engine constraints differ from a fresh load's", b, batch)
			}
			pubs = append(pubs, published{eng.Analyzer(), eng.Report(), got})
		}
		for i, p := range pubs {
			if !bytes.Equal(encodeReport(t, p.a, p.rep), p.json) {
				t.Fatalf("report %d changed after publication", i)
			}
		}
	})
}
