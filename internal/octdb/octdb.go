// Package octdb is the repository's stand-in for the OCT design database
// the original Hummingbird interfaced with (§1, §8): a property store over
// design objects (the design itself, nets, instances, ports) with textual
// save/load, plus the §8 "flag all slow paths" operation whose annotations
// a layout viewer (VEM in the original flow) would display.
package octdb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

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

func (v Value) String() string {
	if v.IsInt {
		return strconv.FormatInt(v.Int, 10)
	}
	return v.Str
}

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

// Get returns a property and whether it exists.
func (db *DB) Get(kind ObjKind, obj, name string) (Value, bool) {
	v, ok := db.props[key{kind, obj, name}]
	return v, ok
}

// Delete removes a property; deleting a missing property is a no-op.
func (db *DB) Delete(kind ObjKind, obj, name string) {
	delete(db.props, key{kind, obj, name})
}

// Len returns the number of attached properties.
func (db *DB) Len() int { return len(db.props) }

// ObjectsWith returns the object names of the given kind carrying the named
// property, sorted.
func (db *DB) ObjectsWith(kind ObjKind, name string) []string {
	var out []string
	for k := range db.props {
		if k.kind == kind && k.name == name {
			out = append(out, k.obj)
		}
	}
	sort.Strings(out)
	return out
}

// ClearPrefix removes every property whose name starts with the prefix;
// used to drop stale analysis annotations before re-flagging.
func (db *DB) ClearPrefix(prefix string) {
	for k := range db.props {
		if strings.HasPrefix(k.name, prefix) {
			delete(db.props, k)
		}
	}
}

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
// recorded, and the design carries the verdict. Stale annotations are
// cleared first.
func FlagSlowPaths(db *DB, a *core.Analyzer, rep *core.Report) {
	db.ClearPrefix("hb.")
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
// Object and value fields are quoted, so arbitrary names round-trip.
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

// Load reads properties saved by Save into the store (merging over any
// existing properties).
func (db *DB) Load(r io.Reader) error {
	if err := failpoint.Hit("octdb.load"); err != nil {
		return err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f, err := splitQuoted(text)
		if err != nil {
			return fmt.Errorf("octdb: line %d: %v", line, err)
		}
		if len(f) < 6 || f[0] != "prop" {
			return fmt.Errorf("octdb: line %d: malformed property line", line)
		}
		var kind ObjKind
		switch f[1] {
		case "design":
			kind = DesignObj
		case "net":
			kind = NetObj
		case "inst":
			kind = InstObj
		case "port":
			kind = PortObj
		default:
			return fmt.Errorf("octdb: line %d: unknown object kind %q", line, f[1])
		}
		obj, err := strconv.Unquote(f[2])
		if err != nil {
			return fmt.Errorf("octdb: line %d: bad object: %v", line, err)
		}
		name, err := strconv.Unquote(f[3])
		if err != nil {
			return fmt.Errorf("octdb: line %d: bad name: %v", line, err)
		}
		rest := f[5]
		switch f[4] {
		case "int":
			i, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return fmt.Errorf("octdb: line %d: bad int: %v", line, err)
			}
			db.Set(kind, obj, name, IntValue(i))
		case "str":
			s, err := strconv.Unquote(rest)
			if err != nil {
				return fmt.Errorf("octdb: line %d: bad string: %v", line, err)
			}
			db.Set(kind, obj, name, StringValue(s))
		default:
			return fmt.Errorf("octdb: line %d: unknown type %q", line, f[4])
		}
	}
	return sc.Err()
}

// splitQuoted splits a line into whitespace-separated tokens, keeping
// Go-quoted strings (including any whitespace and escapes inside) as single
// tokens with their quotes intact.
func splitQuoted(s string) ([]string, error) {
	var out []string
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			break
		}
		if s[i] == '"' {
			j := i + 1
			for j < len(s) {
				if s[j] == '\\' {
					j += 2
					continue
				}
				if s[j] == '"' {
					break
				}
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("unterminated quote")
			}
			out = append(out, s[i:j+1])
			i = j + 1
			continue
		}
		j := i
		for j < len(s) && s[j] != ' ' && s[j] != '\t' {
			j++
		}
		out = append(out, s[i:j])
		i = j
	}
	return out, nil
}
