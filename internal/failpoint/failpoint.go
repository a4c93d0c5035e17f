// Package failpoint provides name-keyed fault-injection points for the
// chaos tests: a call to Hit at an injection site does nothing (one atomic
// load) until the point is armed with an action, at which moment it
// returns an injected error, panics, or sleeps — letting tests provoke the
// failure modes the fault-tolerance layer must contain (I/O errors,
// handler panics, analyses that outlive their deadline) deterministically.
//
// Points are armed programmatically (Arm), from the environment
// (HB_FAILPOINTS="name=action;name2=action2", read by hummingbirdd at
// startup), or over HTTP (the daemon's /debug/failpoints endpoints, behind
// the -failpoints flag). The action grammar:
//
//	[count*]error[(message)]   Hit returns an *InjectedError
//	[count*]panic[(message)]   Hit panics
//	[count*]sleep(duration)    Hit sleeps, then returns nil
//	off                        equivalent to Disarm
//
// A count prefix limits the number of triggers ("1*panic" fires once and
// disarms itself); without one the point fires on every Hit until
// disarmed.
//
// The package is always compiled — only the chaos test suite is gated
// behind the "failpoint" build tag — so the disarmed fast path must stay
// free: Hit is a single atomic load when no point in the process is armed.
package failpoint

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// armedCount is the process-wide number of armed points; Hit's fast path
// is a single load of it.
var armedCount atomic.Int64

var (
	mu     sync.Mutex
	points = map[string]*point{}
)

type mode uint8

const (
	modeError mode = iota
	modePanic
	modeSleep
)

type point struct {
	mode  mode
	msg   string
	delay time.Duration
	// remaining is the number of triggers left; <0 means unlimited.
	remaining int64
	spec      string
}

// ErrInjected is the sentinel every injected error wraps, so call sites
// and tests can errors.Is their way past the per-point message.
var ErrInjected = errors.New("failpoint: injected error")

// InjectedError is the error returned by an armed error-mode point.
type InjectedError struct {
	// Name is the failpoint that fired.
	Name string
	// Msg is the optional message from the arming spec.
	Msg string
}

func (e *InjectedError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("failpoint %s: injected error: %s", e.Name, e.Msg)
	}
	return fmt.Sprintf("failpoint %s: injected error", e.Name)
}

func (e *InjectedError) Unwrap() error { return ErrInjected }

// Hit triggers the named point if armed: error mode returns an
// *InjectedError, panic mode panics with a recognisable value, sleep mode
// blocks for the configured duration and returns nil. Disarmed points (the
// production state) cost one atomic load.
func Hit(name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	p := points[name]
	if p == nil {
		mu.Unlock()
		return nil
	}
	if p.remaining == 0 {
		mu.Unlock()
		return nil
	}
	if p.remaining > 0 {
		p.remaining--
		if p.remaining == 0 {
			delete(points, name)
			armedCount.Add(-1)
		}
	}
	m, msg, delay := p.mode, p.msg, p.delay
	mu.Unlock()
	switch m {
	case modePanic:
		if msg == "" {
			msg = "injected panic"
		}
		panic(fmt.Sprintf("failpoint %s: %s", name, msg))
	case modeSleep:
		time.Sleep(delay)
		return nil
	default:
		return &InjectedError{Name: name, Msg: msg}
	}
}

// Arm installs (or replaces) the named point with an action spec; see the
// package comment for the grammar. Arming with "off" disarms.
func Arm(name, spec string) error {
	name = strings.TrimSpace(name)
	if name == "" {
		return errors.New("failpoint: empty name")
	}
	p, err := parse(spec)
	if err != nil {
		return fmt.Errorf("failpoint %s: %w", name, err)
	}
	mu.Lock()
	defer mu.Unlock()
	_, had := points[name]
	if p == nil {
		if had {
			delete(points, name)
			armedCount.Add(-1)
		}
		return nil
	}
	points[name] = p
	if !had {
		armedCount.Add(1)
	}
	return nil
}

// Disarm removes the named point; disarming an unarmed point is a no-op.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armedCount.Add(-1)
	}
}

// DisarmAll removes every armed point (test cleanup).
func DisarmAll() {
	mu.Lock()
	defer mu.Unlock()
	armedCount.Add(-int64(len(points)))
	points = map[string]*point{}
}

// List returns a snapshot of the armed points as name → arming spec.
func List() map[string]string {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]string, len(points))
	for name, p := range points {
		out[name] = p.spec
	}
	return out
}

// ArmFromEnv parses a semicolon-separated name=action list (the
// HB_FAILPOINTS format) and arms every entry. An empty string is a no-op.
func ArmFromEnv(env string) error {
	for _, entry := range strings.Split(env, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, spec, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("failpoint: bad env entry %q (want name=action)", entry)
		}
		if err := Arm(name, spec); err != nil {
			return err
		}
	}
	return nil
}

// parse turns an action spec into a point; a nil point means "off".
func parse(spec string) (*point, error) {
	orig := spec
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	p := &point{remaining: -1, spec: orig}
	if i := strings.Index(spec, "*"); i >= 0 {
		n, err := strconv.ParseInt(strings.TrimSpace(spec[:i]), 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count in %q", orig)
		}
		p.remaining = n
		spec = strings.TrimSpace(spec[i+1:])
	}
	verb, arg := spec, ""
	if i := strings.Index(spec, "("); i >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("unclosed argument in %q", orig)
		}
		verb, arg = spec[:i], spec[i+1:len(spec)-1]
	}
	switch verb {
	case "error":
		p.mode, p.msg = modeError, arg
	case "panic":
		p.mode, p.msg = modePanic, arg
	case "sleep":
		if arg == "" {
			return nil, fmt.Errorf("sleep needs a duration in %q", orig)
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad sleep duration in %q", orig)
		}
		p.mode, p.delay = modeSleep, d
	default:
		return nil, fmt.Errorf("unknown action %q (want error, panic, sleep or off)", verb)
	}
	return p, nil
}
