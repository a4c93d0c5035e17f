package failpoint

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	DisarmAll()
	if armedCount.Load() != 0 {
		t.Fatal("points armed at test start")
	}
	if err := Hit("nothing.armed"); err != nil {
		t.Fatalf("disarmed hit returned %v", err)
	}
}

func TestErrorInjection(t *testing.T) {
	DisarmAll()
	t.Cleanup(DisarmAll)
	if err := Arm("io.read", "error(disk gone)"); err != nil {
		t.Fatal(err)
	}
	err := Hit("io.read")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Name != "io.read" || ie.Msg != "disk gone" {
		t.Fatalf("injected error = %+v", ie)
	}
	// Other points stay quiet.
	if err := Hit("io.write"); err != nil {
		t.Fatalf("unarmed sibling fired: %v", err)
	}
}

func TestCountedTriggerDisarmsItself(t *testing.T) {
	DisarmAll()
	t.Cleanup(DisarmAll)
	if err := Arm("once", "2*error"); err != nil {
		t.Fatal(err)
	}
	if Hit("once") == nil || Hit("once") == nil {
		t.Fatal("counted point did not fire twice")
	}
	if err := Hit("once"); err != nil {
		t.Fatalf("exhausted point still fires: %v", err)
	}
	if armedCount.Load() != 0 {
		t.Fatal("exhausted point left the armed count high")
	}
}

func TestPanicInjection(t *testing.T) {
	DisarmAll()
	t.Cleanup(DisarmAll)
	if err := Arm("handler", "panic(boom)"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("panic value = %v", r)
		}
	}()
	Hit("handler")
}

func TestSleepInjection(t *testing.T) {
	DisarmAll()
	t.Cleanup(DisarmAll)
	if err := Arm("slow", "sleep(30ms)"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := Hit("slow"); err != nil {
		t.Fatalf("sleep returned %v", err)
	}
	if d := time.Since(t0); d < 25*time.Millisecond {
		t.Fatalf("sleep injection returned after %v", d)
	}
}

func TestArmFromEnvAndList(t *testing.T) {
	DisarmAll()
	t.Cleanup(DisarmAll)
	if err := ArmFromEnv("a=error; b = sleep(1ms) ;; c=1*panic(x)"); err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range List() {
		got = append(got, name)
	}
	sort.Strings(got)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("names = %v", got)
	}
	if spec := List()["b"]; !strings.Contains(spec, "sleep") {
		t.Fatalf("list lost the spec: %q", spec)
	}
	if err := ArmFromEnv("broken"); err == nil {
		t.Fatal("bad env entry accepted")
	}
}

func TestArmRejectsBadSpecs(t *testing.T) {
	DisarmAll()
	t.Cleanup(DisarmAll)
	for _, spec := range []string{"frob", "sleep", "sleep(nope)", "0*error", "-1*panic", "error(unclosed"} {
		if err := Arm("p", spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if err := Arm("", "error"); err == nil {
		t.Error("empty name accepted")
	}
	// "off" disarms.
	if err := Arm("p", "error"); err != nil {
		t.Fatal(err)
	}
	if err := Arm("p", "off"); err != nil {
		t.Fatal(err)
	}
	if armedCount.Load() != 0 {
		t.Fatal("off did not disarm")
	}
}
