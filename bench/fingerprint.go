package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// sources is the benchmark's own code, embedded so every record can
// say which version of the instrument produced it.
//
//go:embed *.go
var sources embed.FS

// fingerprint says where and from what a record was measured, so a
// trajectory can be assembled later without git archaeology.
type fingerprint struct {
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	Kernel       string `json:"kernel"`
	Commit       string `json:"commit"` // "unknown" outside a git checkout
	Dirty        bool   `json:"dirty"`
	SourceDigest string `json:"bench_source_digest"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Kernel:       kernelRelease(),
		SourceDigest: sourceDigest(),
	}
	fp.Commit, fp.Dirty = vcsState()
	return fp
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// vcsState prefers the revision the toolchain stamped into the binary
// and falls back to asking git; a checkout that is not a repository
// (the driver's) reports "unknown".
func vcsState() (commit string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if commit != "" {
		return commit, dirty
	}
	// Ask git only when the repository's root is here or one level up
	// (`go run -C bench .` runs in bench/): left to search further it
	// would report whatever repository happens to enclose the checkout.
	if _, err := os.Stat(".git"); err != nil {
		if _, err := os.Stat(filepath.Join("..", ".git")); err != nil {
			return "unknown", false
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, _ := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(strings.TrimSpace(string(st))) > 0
}

func sourceDigest() string {
	entries, err := sources.ReadDir(".")
	if err != nil {
		return "unknown"
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		b, err := sources.ReadFile(n)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(n))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
