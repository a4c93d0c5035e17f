// Package octdb is the repository's stand-in for the OCT design database
// the original Hummingbird interfaced with (§1, §8): a property store over
// design objects (the design itself, nets, instances, ports), written out
// as text, plus the §8 "flag all slow paths" operation whose annotations
// a layout viewer (VEM in the original flow) would display. Hummingbird
// only writes these annotations; nothing here reads them back.
package octdb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"hummingbird/internal/core"
	"hummingbird/internal/failpoint"
	"hummingbird/internal/netlist"
)

// ObjKind classifies the objects properties attach to.
type ObjKind uint8

const (
	// DesignObj is the design itself (object name ignored).
	DesignObj ObjKind = iota
	// NetObj is a net.
	NetObj
	// InstObj is an instance.
	InstObj
	// PortObj is a primary port.
	PortObj
)

var kindNames = map[ObjKind]string{
	DesignObj: "design", NetObj: "net", InstObj: "inst", PortObj: "port",
}

func (k ObjKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("ObjKind(%d)", uint8(k))
}

// Value is a typed property value (OCT supported typed properties; string
// and integer cover the analyzer's needs).
type Value struct {
	Str   string
	Int   int64
	IsInt bool
}

// StringValue wraps a string property value.
func StringValue(s string) Value { return Value{Str: s} }

// IntValue wraps an integer property value.
func IntValue(i int64) Value { return Value{Int: i, IsInt: true} }

type key struct {
	kind ObjKind
	obj  string
	name string
}

// DB binds a design to its attached properties.
type DB struct {
	Design *netlist.Design
	props  map[key]Value
}

// New creates an empty property store over a design.
func New(d *netlist.Design) *DB {
	return &DB{Design: d, props: map[key]Value{}}
}

// Set attaches (or replaces) a property.
func (db *DB) Set(kind ObjKind, obj, name string, v Value) {
	db.props[key{kind, obj, name}] = v
}

// Len returns the number of attached properties.
func (db *DB) Len() int { return len(db.props) }

// Timing-annotation property names.
const (
	PropSlowPath  = "hb.slowPath"  // net/inst: member of a too-slow path
	PropSlack     = "hb.slackPs"   // net: worst slack in picoseconds
	PropVerdict   = "hb.verdict"   // design: "ok" or "slow"
	PropWorst     = "hb.worstPs"   // design: worst slack in picoseconds
	PropSlowCount = "hb.slowPaths" // design: number of traced slow paths
)

// FlagSlowPaths attaches the §8 slow-path annotations: every net and
// instance on a traced slow path is marked, per-net worst slacks are
// recorded, and the design carries the verdict. Annotations db already
// holds from an earlier analysis are not removed.
func FlagSlowPaths(db *DB, a *core.Analyzer, rep *core.Report) {
	verdict := "ok"
	if !rep.OK {
		verdict = "slow"
	}
	db.Set(DesignObj, "", PropVerdict, StringValue(verdict))
	db.Set(DesignObj, "", PropWorst, IntValue(int64(rep.WorstSlack())))
	db.Set(DesignObj, "", PropSlowCount, IntValue(int64(len(rep.SlowPaths))))
	for n := range rep.Result.NumNets() {
		if s := rep.Result.NetSlack(n); s <= 0 {
			db.Set(NetObj, a.CD.Nets[n], PropSlack, IntValue(int64(s)))
		}
	}
	for _, p := range rep.SlowPaths {
		for _, net := range p.Nets {
			db.Set(NetObj, a.CD.Nets[net], PropSlowPath, IntValue(1))
		}
		for _, inst := range p.Insts {
			db.Set(InstObj, inst, PropSlowPath, IntValue(1))
		}
	}
}

// Save writes the property store as sorted text lines:
//
//	prop KIND OBJECT NAME TYPE VALUE
//
// Object, name and string value fields are Go-quoted, so any name reads
// back unambiguously.
func (db *DB) Save(w io.Writer) error {
	if err := failpoint.Hit("octdb.save"); err != nil {
		return err
	}
	keys := make([]key, 0, len(db.props))
	for k := range db.props {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.obj != b.obj {
			return a.obj < b.obj
		}
		return a.name < b.name
	})
	bw := bufio.NewWriter(w)
	for _, k := range keys {
		v := db.props[k]
		typ, val := "str", strconv.Quote(v.Str)
		if v.IsInt {
			typ, val = "int", strconv.FormatInt(v.Int, 10)
		}
		fmt.Fprintf(bw, "prop %s %s %s %s %s\n", k.kind, strconv.Quote(k.obj), strconv.Quote(k.name), typ, val)
	}
	return bw.Flush()
}
