package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/debug"
	"strings"
)

// gitRev is the VCS revision the Go toolchain stamped into the binary,
// "unknown" when it was built outside a git checkout (as the benchmark driver
// builds it).
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

// cpuModel is the first "model name" of /proc/cpuinfo, "unknown" where there
// is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
