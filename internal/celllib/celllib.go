// Package celllib provides the standard-cell library substrate: cell
// interface descriptions (pins, kinds, areas) and the empirical
// load-dependent propagation-delay models the paper relies on for component
// delay estimation ("For standard cells, empirical delay estimation formulae
// are often used", §1; "Propagation delays for the standard cells have been
// estimated using delay evaluation expressions that take into account the
// connected loads", §8).
//
// Delay model: a linear expression per timing arc and transition,
//
//	d(load) = Intrinsic + Slope × Cload
//
// with capacitances in integer femtofarads and delays in integer picoseconds
// (slope in ps/fF). Separate parameters are kept for rising and falling
// output transitions (the separate rise/fall settling-time technique of
// Bening et al. [7], adopted by the paper) and for minimum-delay analysis
// (used by the supplementary path constraints of §4).
package celllib

import (
	"fmt"
	"sort"

	"hummingbird/internal/clock"
)

// Cap is a capacitance in integer femtofarads.
type Cap int64

// PinDir distinguishes input from output pins.
type PinDir uint8

const (
	// In marks a cell input pin.
	In PinDir = iota
	// Out marks a cell output pin.
	Out
)

// PinRole classifies a pin's function on a synchronising element; on
// combinational cells every input is Data.
type PinRole uint8

const (
	// Data is an ordinary signal pin.
	Data PinRole = iota
	// Control is the clock/enable input of a synchronising element ("the
	// control input signal determines the output timing", §3).
	Control
)

// Pin describes one terminal of a library cell.
type Pin struct {
	Name string
	Dir  PinDir
	Role PinRole
	// C is the input capacitance presented to the driving net (inputs
	// only; outputs report 0).
	C Cap
}

// Kind classifies cells by their synchronisation behaviour (§3, §5).
type Kind uint8

const (
	// Comb is ordinary combinational logic.
	Comb Kind = iota
	// Transparent is a level-sensitive ("transparent") latch: data flows
	// input→output while the control pulse is active; the trailing control
	// edge latches the input (§5).
	Transparent
	// EdgeTriggered is a trailing-edge-triggered latch (flip-flop): input
	// closure and output assertion both occur on the trailing control edge
	// (§5).
	EdgeTriggered
	// Tristate is a clocked tristate driver; the paper models these
	// identically to transparent latches (§5).
	Tristate
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case Comb:
		return "comb"
	case Transparent:
		return "transparent"
	case EdgeTriggered:
		return "edge-triggered"
	case Tristate:
		return "tristate"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Sense is the unateness of a timing arc: how input transition direction
// maps to output transition direction.
type Sense uint8

const (
	// PositiveUnate arcs propagate rise→rise and fall→fall (buffers, AND/OR).
	PositiveUnate Sense = iota
	// NegativeUnate arcs propagate rise→fall and fall→rise (inverting gates).
	NegativeUnate
	// NonUnate arcs propagate either input transition to either output
	// transition (XOR-class gates).
	NonUnate
)

// String names the sense for reports.
func (s Sense) String() string {
	switch s {
	case PositiveUnate:
		return "pos"
	case NegativeUnate:
		return "neg"
	case NonUnate:
		return "non"
	}
	return fmt.Sprintf("Sense(%d)", uint8(s))
}

// Linear is one linear delay expression d(load) = Intrinsic + Slope·load.
type Linear struct {
	Intrinsic clock.Time // ps at zero load
	Slope     int64      // ps per fF
}

// Eval evaluates the expression at the given load.
func (l Linear) Eval(load Cap) clock.Time {
	return l.Intrinsic + clock.Time(l.Slope*int64(load))
}

// ArcDelay holds the four max-delay expressions of one timing arc plus the
// matching min-delay expressions (min ≤ max is enforced by Validate).
type ArcDelay struct {
	// MaxRise/MaxFall bound the latest output rise/fall after an input
	// transition; these feed the path constraints (dmax, §4).
	MaxRise, MaxFall Linear
	// MinRise/MinFall bound the earliest output transitions; these feed
	// the supplementary path constraints (dmin, §4).
	MinRise, MinFall Linear
}

// Arc is a pin-to-pin timing arc within a cell.
type Arc struct {
	From, To string
	Sense    Sense
	Delay    ArcDelay
}

// SyncTiming carries the synchronising-element parameters of §5.
type SyncTiming struct {
	// Dsetup is the data set-up time before input closure (Odc = −Dsetup).
	Dsetup clock.Time
	// Ddz is the data-input-to-output delay (transparent mode).
	Ddz clock.Time
	// Dcz is the control-input-to-output delay.
	Dcz clock.Time
	// ActiveLow, when set, means the element is transparent (or, for an
	// edge-triggered element, captures) while the control input is LOW:
	// the effective control pulse is the complement of the incoming
	// waveform. Combined with control-path inversion parity this realises
	// the §3 monotonic-control-function assumption.
	ActiveLow bool
}

// Cell is one library cell.
type Cell struct {
	Name string
	Kind Kind
	// Function is an informational textual description (e.g. "Y=!(A&B)").
	Function string
	// Area is the cell area in abstract grid units; Algorithm 3's
	// redesign operator trades area for speed using it.
	Area int64
	// Drive is the output drive strength class (1, 2, 4, ...); larger
	// drives have smaller delay slopes.
	Drive int
	Pins  []Pin
	Arcs  []Arc
	// Sync holds latch/FF parameters; nil for combinational cells.
	Sync *SyncTiming
}

// Pin returns the named pin, or nil.
func (c *Cell) Pin(name string) *Pin {
	if i := c.PinIndex(name); i >= 0 {
		return &c.Pins[i]
	}
	return nil
}

// PinIndex returns the position of the named pin within Pins, or -1.
func (c *Cell) PinIndex(name string) int {
	for i := range c.Pins {
		if c.Pins[i].Name == name {
			return i
		}
	}
	return -1
}

// Inputs returns the input pin names in declaration order.
func (c *Cell) Inputs() []string {
	var in []string
	for _, p := range c.Pins {
		if p.Dir == In {
			in = append(in, p.Name)
		}
	}
	return in
}

// Outputs returns the output pin names in declaration order.
func (c *Cell) Outputs() []string {
	var out []string
	for _, p := range c.Pins {
		if p.Dir == Out {
			out = append(out, p.Name)
		}
	}
	return out
}

// ControlPin returns the name of the control input, or "" for combinational
// cells.
func (c *Cell) ControlPin() string {
	for _, p := range c.Pins {
		if p.Role == Control {
			return p.Name
		}
	}
	return ""
}

// DataPins returns the data input pin names (inputs that are not control).
func (c *Cell) DataPins() []string {
	var in []string
	for _, p := range c.Pins {
		if p.Dir == In && p.Role == Data {
			in = append(in, p.Name)
		}
	}
	return in
}

// IsSync reports whether the cell is a synchronising element.
func (c *Cell) IsSync() bool { return c.Kind != Comb }

// Validate checks structural invariants: pins exist for every arc, arcs
// connect input→output, min delays do not exceed max delays at zero and unit
// load, sync cells carry Sync parameters and exactly one control pin.
func (c *Cell) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("celllib: cell with empty name")
	}
	seen := map[string]bool{}
	nOut := 0
	for _, p := range c.Pins {
		if seen[p.Name] {
			return fmt.Errorf("cell %s: duplicate pin %q", c.Name, p.Name)
		}
		seen[p.Name] = true
		if p.Dir == Out {
			nOut++
			if p.Role == Control {
				return fmt.Errorf("cell %s: output pin %q marked control", c.Name, p.Name)
			}
		}
	}
	if nOut == 0 {
		return fmt.Errorf("cell %s: no output pin", c.Name)
	}
	for _, a := range c.Arcs {
		fp, tp := c.Pin(a.From), c.Pin(a.To)
		if fp == nil || tp == nil {
			return fmt.Errorf("cell %s: arc %s->%s references missing pin", c.Name, a.From, a.To)
		}
		if fp.Dir != In || tp.Dir != Out {
			return fmt.Errorf("cell %s: arc %s->%s must run input->output", c.Name, a.From, a.To)
		}
		for _, probe := range []Cap{0, 10, 100} {
			if a.Delay.MinRise.Eval(probe) > a.Delay.MaxRise.Eval(probe) {
				return fmt.Errorf("cell %s: arc %s->%s min rise exceeds max at load %d", c.Name, a.From, a.To, probe)
			}
			if a.Delay.MinFall.Eval(probe) > a.Delay.MaxFall.Eval(probe) {
				return fmt.Errorf("cell %s: arc %s->%s min fall exceeds max at load %d", c.Name, a.From, a.To, probe)
			}
		}
	}
	ctrl := 0
	for _, p := range c.Pins {
		if p.Role == Control {
			ctrl++
		}
	}
	if c.Kind == Comb {
		if ctrl != 0 {
			return fmt.Errorf("cell %s: combinational cell with control pin", c.Name)
		}
		if c.Sync != nil {
			return fmt.Errorf("cell %s: combinational cell with sync timing", c.Name)
		}
	} else {
		if ctrl != 1 {
			return fmt.Errorf("cell %s: synchronising element needs exactly one control pin, has %d", c.Name, ctrl)
		}
		if c.Sync == nil {
			return fmt.Errorf("cell %s: synchronising element without sync timing", c.Name)
		}
		if c.Sync.Dsetup < 0 || c.Sync.Ddz < 0 || c.Sync.Dcz < 0 {
			return fmt.Errorf("cell %s: negative sync timing parameters", c.Name)
		}
	}
	return nil
}

// Library is a named collection of cells.
type Library struct {
	Name  string
	cells map[string]*Cell
}

// NewLibrary returns an empty library.
func NewLibrary(name string) *Library {
	return &Library{Name: name, cells: make(map[string]*Cell)}
}

// Add validates and inserts a cell; duplicate names are rejected.
func (l *Library) Add(c *Cell) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if _, dup := l.cells[c.Name]; dup {
		return fmt.Errorf("celllib: duplicate cell %q", c.Name)
	}
	l.cells[c.Name] = c
	return nil
}

// Cell returns the named cell, or nil.
func (l *Library) Cell(name string) *Cell { return l.cells[name] }

// Len returns the number of cells.
func (l *Library) Len() int { return len(l.cells) }

// Names returns all cell names, sorted.
func (l *Library) Names() []string {
	names := make([]string, 0, len(l.cells))
	for n := range l.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
