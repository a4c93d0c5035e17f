package buildinfo

import (
	"strings"
	"testing"
)

func TestCollectAlwaysUsable(t *testing.T) {
	info := Collect()
	if info.GoVersion == "" {
		t.Fatal("no Go version")
	}
	if info.Version == "" {
		t.Fatal("empty version")
	}
}

func TestWriteVersionFormat(t *testing.T) {
	var sb strings.Builder
	WriteVersion(&sb, "hummingbird")
	out := sb.String()
	if !strings.HasPrefix(out, "hummingbird ") {
		t.Fatalf("version line %q lacks binary name", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("version line %q not newline-terminated", out)
	}
	if !strings.Contains(out, "go") {
		t.Fatalf("version line %q lacks toolchain version", out)
	}
}
