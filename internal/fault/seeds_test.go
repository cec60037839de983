package fault

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestSeedsWindow(t *testing.T) {
	for _, tc := range []struct {
		env, def string
		want     []int64
	}{
		{"", "1-3", []int64{1, 2, 3}},
		{"53", "1-3", []int64{53}},
		{"7-9", "1-3", []int64{7, 8, 9}},
		{" 4 - 5 ", "1", []int64{4, 5}},
	} {
		t.Setenv(SeedsEnv, tc.env)
		got, err := Seeds(tc.def)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s=%q, default %q: %v, %v; want %v", SeedsEnv, tc.env, tc.def, got, err, tc.want)
		}
	}
	for _, bad := range []string{"x", "3-1", "1,2", "1-", "1-100001"} {
		t.Setenv(SeedsEnv, bad)
		if got, err := Seeds("1"); err == nil {
			t.Errorf("%s=%q = %d seeds, want an error", SeedsEnv, bad, len(got))
		}
	}
}

func TestRecordAppendsRerunLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repro.txt")
	t.Setenv(ArtifactEnv, "")
	if err := Record(1, "./p", "TestX", "unset"); err != nil {
		t.Fatal(err)
	}
	t.Setenv(ArtifactEnv, path)
	for _, seed := range []int64{53, 54} {
		if err := Record(seed, "./internal/core", "TestExhaustionTorture", "refill@6"); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	want := "FAULT_SEEDS=53 go test ./internal/core -run 'TestExhaustionTorture' -v -count=1  # refill@6"
	if len(lines) != 2 || lines[0] != want || !strings.HasPrefix(lines[1], "FAULT_SEEDS=54 ") {
		t.Fatalf("artifact = %q, want two lines, the first %q", lines, want)
	}
}
