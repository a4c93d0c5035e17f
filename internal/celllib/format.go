package celllib

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hummingbird/internal/clock"
)

// The textual library format lets a deployment supply its own cells and
// empirical delay expressions instead of the built-in Default() library —
// the paper's separation of component delay estimation from system timing
// analysis (§1) made concrete:
//
//	library NAME
//	cell INV_X1 kind comb area 3 drive 1
//	  function Y=!A
//	  pin A in cap 4
//	  pin Y out
//	  arc A Y sense neg maxrise 120ps 9 maxfall 90ps 7 minrise 72ps 4 minfall 54ps 3
//	endcell
//	cell DLATCH_X1 kind transparent area 9 drive 1
//	  pin D in cap 4
//	  pin G in control cap 5
//	  pin Q out
//	  arc D Q sense pos maxrise 280ps 10 maxfall 280ps 10 minrise 168ps 5 minfall 168ps 5
//	  sync setup 150ps ddz 280ps dcz 320ps
//	endcell
//	end
//
// Each arc delay expression is "INTRINSIC SLOPE" — an intrinsic time
// literal (netlist syntax: bare picoseconds, or with ps/ns/us suffix) and
// an integer slope in ps/fF. A sync line may end with "activelow". Omitted
// min expressions default to the max expressions.

// ParseLibrary reads a library in the textual format.
func ParseLibrary(r io.Reader) (*Library, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		lib    *Library
		cur    *Cell
		lineNo int
		ended  bool
	)
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("celllib: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if ended {
			return nil, fail("content after 'end'")
		}
		f := strings.Fields(line)
		switch f[0] {
		case "library":
			if lib != nil {
				return nil, fail("duplicate library line")
			}
			if len(f) != 2 {
				return nil, fail("usage: library NAME")
			}
			lib = NewLibrary(f[1])
		case "cell":
			if lib == nil {
				return nil, fail("cell before library")
			}
			if cur != nil {
				return nil, fail("nested cell (missing endcell)")
			}
			c, err := parseCellHeader(f)
			if err != nil {
				return nil, fail("%v", err)
			}
			cur = c
		case "endcell":
			if cur == nil {
				return nil, fail("endcell outside cell")
			}
			if err := lib.Add(cur); err != nil {
				return nil, fail("%v", err)
			}
			cur = nil
		case "function":
			if cur == nil {
				return nil, fail("function outside cell")
			}
			cur.Function = strings.Join(f[1:], " ")
		case "pin":
			if cur == nil {
				return nil, fail("pin outside cell")
			}
			p, err := parsePin(f)
			if err != nil {
				return nil, fail("%v", err)
			}
			cur.Pins = append(cur.Pins, p)
		case "arc":
			if cur == nil {
				return nil, fail("arc outside cell")
			}
			a, err := parseArc(f)
			if err != nil {
				return nil, fail("%v", err)
			}
			cur.Arcs = append(cur.Arcs, a)
		case "sync":
			if cur == nil {
				return nil, fail("sync outside cell")
			}
			st, err := parseSync(f)
			if err != nil {
				return nil, fail("%v", err)
			}
			cur.Sync = st
		case "end":
			if lib == nil {
				return nil, fail("end before library")
			}
			if cur != nil {
				return nil, fail("end inside cell")
			}
			ended = true
		default:
			return nil, fail("unknown directive %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("celllib: %w", err)
	}
	if lib == nil {
		return nil, fmt.Errorf("celllib: no library found")
	}
	if !ended {
		return nil, fmt.Errorf("celllib: missing 'end'")
	}
	return lib, nil
}

// ParseLibraryString is ParseLibrary over a string.
func ParseLibraryString(s string) (*Library, error) {
	return ParseLibrary(strings.NewReader(s))
}

func parseCellHeader(f []string) (*Cell, error) {
	// cell NAME kind KIND area N drive N
	if len(f) < 2 {
		return nil, fmt.Errorf("usage: cell NAME [kind K] [area N] [drive N]")
	}
	c := &Cell{Name: f[1], Kind: Comb, Drive: 1}
	rest := f[2:]
	for len(rest) >= 2 {
		switch rest[0] {
		case "kind":
			switch rest[1] {
			case "comb":
				c.Kind = Comb
			case "transparent":
				c.Kind = Transparent
			case "edge", "edge-triggered":
				c.Kind = EdgeTriggered
			case "tristate":
				c.Kind = Tristate
			default:
				return nil, fmt.Errorf("unknown kind %q", rest[1])
			}
		case "area":
			v, err := strconv.ParseInt(rest[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad area %q", rest[1])
			}
			c.Area = v
		case "drive":
			v, err := strconv.Atoi(rest[1])
			if err != nil {
				return nil, fmt.Errorf("bad drive %q", rest[1])
			}
			c.Drive = v
		default:
			return nil, fmt.Errorf("unknown cell attribute %q", rest[0])
		}
		rest = rest[2:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dangling cell attribute %q", rest[0])
	}
	return c, nil
}

func parsePin(f []string) (Pin, error) {
	// pin NAME in|out [control] [cap N]
	var p Pin
	if len(f) < 3 {
		return p, fmt.Errorf("usage: pin NAME in|out [control] [cap N]")
	}
	p.Name = f[1]
	switch f[2] {
	case "in":
		p.Dir = In
	case "out":
		p.Dir = Out
	default:
		return p, fmt.Errorf("pin %s: direction %q (want in|out)", p.Name, f[2])
	}
	rest := f[3:]
	for len(rest) > 0 {
		switch rest[0] {
		case "control":
			p.Role = Control
			rest = rest[1:]
		case "cap":
			if len(rest) < 2 {
				return p, fmt.Errorf("pin %s: cap needs a value", p.Name)
			}
			v, err := strconv.ParseInt(rest[1], 10, 64)
			if err != nil {
				return p, fmt.Errorf("pin %s: bad cap %q", p.Name, rest[1])
			}
			p.C = Cap(v)
			rest = rest[2:]
		default:
			return p, fmt.Errorf("pin %s: unknown attribute %q", p.Name, rest[0])
		}
	}
	return p, nil
}

func parseArc(f []string) (Arc, error) {
	// arc FROM TO sense S maxrise I S maxfall I S [minrise I S minfall I S]
	var a Arc
	if len(f) < 4 {
		return a, fmt.Errorf("usage: arc FROM TO sense S maxrise I S maxfall I S ...")
	}
	a.From, a.To = f[1], f[2]
	rest := f[3:]
	sawMin := false
	for len(rest) > 0 {
		switch rest[0] {
		case "sense":
			if len(rest) < 2 {
				return a, fmt.Errorf("arc %s->%s: sense needs a value", a.From, a.To)
			}
			switch rest[1] {
			case "pos":
				a.Sense = PositiveUnate
			case "neg":
				a.Sense = NegativeUnate
			case "non":
				a.Sense = NonUnate
			default:
				return a, fmt.Errorf("arc %s->%s: unknown sense %q", a.From, a.To, rest[1])
			}
			rest = rest[2:]
		case "maxrise", "maxfall", "minrise", "minfall":
			if len(rest) < 3 {
				return a, fmt.Errorf("arc %s->%s: %s needs INTRINSIC SLOPE", a.From, a.To, rest[0])
			}
			l, err := parseLinear(rest[1], rest[2])
			if err != nil {
				return a, fmt.Errorf("arc %s->%s: %v", a.From, a.To, err)
			}
			switch rest[0] {
			case "maxrise":
				a.Delay.MaxRise = l
			case "maxfall":
				a.Delay.MaxFall = l
			case "minrise":
				a.Delay.MinRise = l
				sawMin = true
			case "minfall":
				a.Delay.MinFall = l
				sawMin = true
			}
			rest = rest[3:]
		default:
			return a, fmt.Errorf("arc %s->%s: unknown attribute %q", a.From, a.To, rest[0])
		}
	}
	if !sawMin {
		a.Delay.MinRise = a.Delay.MaxRise
		a.Delay.MinFall = a.Delay.MaxFall
	}
	return a, nil
}

func parseSync(f []string) (*SyncTiming, error) {
	// sync setup T ddz T dcz T [activelow]
	st := &SyncTiming{}
	rest := f[1:]
	for len(rest) > 0 {
		switch rest[0] {
		case "activelow":
			st.ActiveLow = true
			rest = rest[1:]
		case "setup", "ddz", "dcz":
			if len(rest) < 2 {
				return nil, fmt.Errorf("sync: %s needs a time", rest[0])
			}
			t, err := parseTimeLit(rest[1])
			if err != nil {
				return nil, err
			}
			switch rest[0] {
			case "setup":
				st.Dsetup = t
			case "ddz":
				st.Ddz = t
			case "dcz":
				st.Dcz = t
			}
			rest = rest[2:]
		default:
			return nil, fmt.Errorf("sync: unknown attribute %q", rest[0])
		}
	}
	return st, nil
}

func parseLinear(intr, slope string) (Linear, error) {
	t, err := parseTimeLit(intr)
	if err != nil {
		return Linear{}, err
	}
	s, err := strconv.ParseInt(slope, 10, 64)
	if err != nil {
		return Linear{}, fmt.Errorf("bad slope %q", slope)
	}
	return Linear{Intrinsic: t, Slope: s}, nil
}

// parseTimeLit parses a time literal (bare picoseconds or ps/ns/us suffix).
// Duplicated from the netlist format to keep celllib dependency-free.
func parseTimeLit(s string) (clock.Time, error) {
	unit := clock.Ps
	num := s
	switch {
	case strings.HasSuffix(s, "ps"):
		num = s[:len(s)-2]
	case strings.HasSuffix(s, "ns"):
		num, unit = s[:len(s)-2], clock.Ns
	case strings.HasSuffix(s, "us"):
		num, unit = s[:len(s)-2], clock.Us
	}
	if i, err := strconv.ParseInt(num, 10, 64); err == nil {
		return clock.Time(i) * unit, nil
	}
	fv, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time literal %q", s)
	}
	v := fv * float64(unit)
	if v != float64(int64(v)) {
		return 0, fmt.Errorf("time literal %q is not whole picoseconds", s)
	}
	return clock.Time(v), nil
}

// WriteLibrary renders a library in the textual format;
// ParseLibrary(WriteLibrary(l)) round-trips, which FuzzParseLibrary and
// the library round-trip tests check.
func WriteLibrary(w io.Writer, l *Library) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "library %s\n", l.Name)
	for _, name := range l.Names() {
		c := l.Cell(name)
		kind := map[Kind]string{Comb: "comb", Transparent: "transparent",
			EdgeTriggered: "edge", Tristate: "tristate"}[c.Kind]
		fmt.Fprintf(bw, "cell %s kind %s area %d drive %d\n", c.Name, kind, c.Area, c.Drive)
		if c.Function != "" {
			fmt.Fprintf(bw, "  function %s\n", c.Function)
		}
		for _, p := range c.Pins {
			dir := "in"
			if p.Dir == Out {
				dir = "out"
			}
			fmt.Fprintf(bw, "  pin %s %s", p.Name, dir)
			if p.Role == Control {
				fmt.Fprint(bw, " control")
			}
			if p.C != 0 {
				fmt.Fprintf(bw, " cap %d", p.C)
			}
			fmt.Fprintln(bw)
		}
		for _, a := range c.Arcs {
			sense := map[Sense]string{PositiveUnate: "pos", NegativeUnate: "neg", NonUnate: "non"}[a.Sense]
			fmt.Fprintf(bw, "  arc %s %s sense %s maxrise %d %d maxfall %d %d minrise %d %d minfall %d %d\n",
				a.From, a.To, sense,
				int64(a.Delay.MaxRise.Intrinsic), a.Delay.MaxRise.Slope,
				int64(a.Delay.MaxFall.Intrinsic), a.Delay.MaxFall.Slope,
				int64(a.Delay.MinRise.Intrinsic), a.Delay.MinRise.Slope,
				int64(a.Delay.MinFall.Intrinsic), a.Delay.MinFall.Slope)
		}
		if c.Sync != nil {
			fmt.Fprintf(bw, "  sync setup %d ddz %d dcz %d", int64(c.Sync.Dsetup), int64(c.Sync.Ddz), int64(c.Sync.Dcz))
			if c.Sync.ActiveLow {
				fmt.Fprint(bw, " activelow")
			}
			fmt.Fprintln(bw)
		}
		fmt.Fprintln(bw, "endcell")
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}
