// Package buildinfo ties traces, metrics and bug reports to a build:
// it condenses debug.ReadBuildInfo into a stable, JSON-serialisable
// summary shared by the -version flags of both binaries and the
// daemon's /buildinfo endpoint.
package buildinfo

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
)

// Info is the build summary.
type Info struct {
	// Path is the main module path (module name from go.mod).
	Path string `json:"path"`
	// Version is the main module version ("(devel)" for source builds).
	Version string `json:"version"`
	// GoVersion is the toolchain that produced the binary.
	GoVersion string `json:"goVersion"`
	// VCSRevision / VCSTime / VCSModified are the commit stamped into the
	// binary by the toolchain, when built inside a repository.
	VCSRevision string `json:"vcsRevision,omitempty"`
	VCSTime     string `json:"vcsTime,omitempty"`
	VCSModified bool   `json:"vcsModified,omitempty"`
}

// Collect reads the build info baked into the running binary. It always
// returns a usable Info: binaries built without module support still
// report the Go version.
func Collect() Info {
	info := Info{Version: "(unknown)", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.Path = bi.Main.Path
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.VCSRevision = s.Value
		case "vcs.time":
			info.VCSTime = s.Value
		case "vcs.modified":
			info.VCSModified = s.Value == "true"
		}
	}
	return info
}

// WriteVersion prints the one-line -version output for the named binary.
func WriteVersion(w io.Writer, binary string) {
	info := Collect()
	fmt.Fprintf(w, "%s %s", binary, info.Version)
	if info.VCSRevision != "" {
		rev := info.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(w, " (%s", rev)
		if info.VCSModified {
			fmt.Fprint(w, "+dirty")
		}
		fmt.Fprint(w, ")")
	}
	fmt.Fprintf(w, " %s\n", info.GoVersion)
}
