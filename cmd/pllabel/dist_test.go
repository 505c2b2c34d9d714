package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/labelstore"
)

func TestRunDistanceSchemes(t *testing.T) {
	path := edgeListFixture(t)
	for _, tc := range []struct {
		args []string
		kind string
	}{
		{[]string{"-scheme", "dist-pll"}, labelstore.SchemePLL},
		{[]string{"-scheme", "dist-bounded", "-f", "3"}, labelstore.SchemeBDist},
	} {
		storePath := filepath.Join(t.TempDir(), "dists.pllb")
		args := append(tc.args, "-in", path, "-o", storePath)
		var out bytes.Buffer
		if err := run(args, strings.NewReader(""), &out); err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out.String())
		}
		if !strings.Contains(out.String(), "verify: ok") {
			t.Errorf("%v: missing verification line in %q", tc.args, out.String())
		}
		f, err := os.Open(storePath)
		if err != nil {
			t.Fatal(err)
		}
		store, err := labelstore.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%v: store unreadable: %v", tc.args, err)
		}
		if got := store.SchemeKind(); got != tc.kind {
			t.Errorf("%v: store kind = %s, want %s", tc.args, got, tc.kind)
		}
	}
}

func TestRunDistanceRejections(t *testing.T) {
	path := edgeListFixture(t)
	var out bytes.Buffer
	err := run([]string{"-scheme", "dist-pll", "-in", path, "-shards", "2", "-o", "x"}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "replica fleets") {
		t.Errorf("-shards with a distance scheme: err = %v", err)
	}
	err = run([]string{"-scheme", "dist-bounded", "-f", "0", "-in", path}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "-f >= 1") {
		t.Errorf("dist-bounded -f 0: err = %v", err)
	}
}
