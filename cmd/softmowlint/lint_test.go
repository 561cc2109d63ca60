package main

import (
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Fixtures under testdata/src are invisible to go build but resolvable by
// the source loader; each declares its expected findings inline with
// `// want <check>` trailing comments.

var (
	loaderOnce sync.Once
	testLoader *Loader
	testModule string
	loaderErr  error
)

func fixture(t *testing.T, name string) *Package {
	t.Helper()
	loaderOnce.Do(func() {
		var repoRoot string
		repoRoot, testModule, loaderErr = findRepoRoot(".")
		if loaderErr == nil {
			testLoader = NewLoader(repoRoot, testModule)
		}
	})
	if loaderErr != nil {
		t.Fatalf("findRepoRoot: %v", loaderErr)
	}
	p, err := testLoader.Load(testModule + "/cmd/softmowlint/testdata/src/" + name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return p
}

var wantRE = regexp.MustCompile(`// want (\w+)`)

// wantSet parses the fixture's `// want <check>` comments into a multiset
// of "file:line:check" keys.
func wantSet(t *testing.T, p *Package) map[string]int {
	t.Helper()
	want := make(map[string]int)
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename
		src, err := os.ReadFile(filename)
		if err != nil {
			t.Fatalf("read %s: %v", filename, err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				want[key(pathBase(filename), i+1, m[1])]++
			}
		}
	}
	return want
}

func key(file string, line int, check string) string {
	return file + ":" + itoa(line) + ":" + check
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// checkFixture asserts the findings match the fixture's want comments
// exactly (same file, line, and check; no extras, no misses).
func checkFixture(t *testing.T, p *Package, findings []Finding) {
	t.Helper()
	want := wantSet(t, p)
	got := make(map[string]int)
	for _, f := range findings {
		got[key(pathBase(f.Pos.Filename), f.Pos.Line, f.Check)]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("want %d finding(s) at %s, got %d", n, k, got[k])
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("unexpected finding(s) at %s (×%d)", k, n)
		}
	}
}

func TestLockguard(t *testing.T) {
	bad := fixture(t, "lockbad")
	checkFixture(t, bad, filterSuppressed(bad, lockguard(bad)))

	good := fixture(t, "lockgood")
	checkFixture(t, good, filterSuppressed(good, lockguard(good)))
}

func TestDeterminism(t *testing.T) {
	bad := fixture(t, "detbad")
	checkFixture(t, bad, filterSuppressed(bad, determinism(bad)))

	good := fixture(t, "detgood")
	checkFixture(t, good, filterSuppressed(good, determinism(good)))
}

func TestLayering(t *testing.T) {
	raw := layeringConfig{
		AllowedFiles: map[string]bool{"allowed.go": true},
		FromPath:     "repro/internal/southbound",
		Forbidden: map[string]bool{
			"TypeFlowMod":        true,
			"TypeFlowModBatch":   true,
			"TypeBarrierRequest": true,
			"TypeBarrierReply":   true,
		},
		Reason: "test",
	}
	del := layeringConfig{
		FromPath:  "repro/internal/dataplane",
		Forbidden: map[string]bool{"Network.RemoveRulesOwner": true},
		Reason:    "test",
	}
	for _, tc := range []struct {
		cfg       layeringConfig
		bad, good string
	}{{raw, "laybad", "laygood"}, {del, "delbad", "delgood"}} {
		for _, name := range []string{tc.bad, tc.good} {
			p := fixture(t, name)
			cfg := tc.cfg
			cfg.PkgPath = p.Path
			// raw and del stay unscoped here: a config applies only to its
			// own package.
			checkFixture(t, p, filterSuppressed(p, layering(p, []layeringConfig{cfg, raw, del})))
			// The production configs must not fire on fixture packages at all.
			if fs := layering(p, coreLayering); len(fs) != 0 {
				t.Errorf("production layering config fired on fixture %s: %v", name, fs)
			}
		}
	}
}

// TestImportBan exercises the module-wide import ban on a stand-in path
// (a fixture importing the really banned package would itself break the
// tree's no-gob guarantee), then pins the production list.
func TestImportBan(t *testing.T) {
	banned := map[string]string{"encoding/xml": "test ban"}

	bad := fixture(t, "impbad")
	checkFixture(t, bad, filterSuppressed(bad, importBan(bad, banned)))

	good := fixture(t, "impgood")
	checkFixture(t, good, filterSuppressed(good, importBan(good, banned)))

	if _, ok := bannedImports[`encoding/gob`]; !ok {
		t.Error("production ban list no longer forbids encoding/gob")
	}
	if fs := importBan(bad, bannedImports); len(fs) != 0 {
		t.Errorf("production ban list fired on a fixture package: %v", fs)
	}
}

func TestErrdiscard(t *testing.T) {
	bad := fixture(t, "errbad")
	checkFixture(t, bad, filterSuppressed(bad, errdiscard(bad, "repro/")))

	good := fixture(t, "errgood")
	checkFixture(t, good, filterSuppressed(good, errdiscard(good, "repro/")))
}

func TestWireparity(t *testing.T) {
	cfg := wireparityConfig{
		EnumType:      "MsgType",
		ConstPrefix:   "Type",
		EncodeFunc:    "appendBody",
		DecodeFunc:    "decodeBody",
		CorpusDir:     "testdata/fuzz/FuzzFrameDecode",
		TypeByteIndex: 1,
	}

	bad := fixture(t, "wirebad")
	cfg.PkgPath = bad.Path
	checkFixture(t, bad, filterSuppressed(bad, wireparity(bad, cfg)))

	good := fixture(t, "wiregood")
	cfg.PkgPath = good.Path
	checkFixture(t, good, filterSuppressed(good, wireparity(good, cfg)))

	// The production config must not fire on fixture packages at all.
	if fs := wireparity(bad, southboundWireparity); len(fs) != 0 {
		t.Errorf("production wireparity config fired on a fixture package: %v", fs)
	}
}

func TestGospawn(t *testing.T) {
	bad := fixture(t, "spawnbad")
	checkFixture(t, bad, filterSuppressed(bad, gospawn(bad)))

	good := fixture(t, "spawngood")
	checkFixture(t, good, filterSuppressed(good, gospawn(good)))
}

func TestMetricname(t *testing.T) {
	bad := fixture(t, "metbad")
	registry := map[string]map[string]bool{
		bad.Path: {"metbad.requests": true, "metbad.dead_entry": true},
	}
	checkFixture(t, bad, filterSuppressed(bad, metricname(bad, registry, metricsPkgPath)))

	good := fixture(t, "metgood")
	registry = map[string]map[string]bool{
		good.Path: {"metgood.requests": true, "metgood.latency": true},
	}
	checkFixture(t, good, filterSuppressed(good, metricname(good, registry, metricsPkgPath)))

	// A package minting metrics with no registry entry at all is flagged at
	// each literal-name constructor call.
	noEntry := 0
	for _, f := range metricname(bad, map[string]map[string]bool{}, metricsPkgPath) {
		if strings.Contains(f.Message, "no metric-name registry entry") {
			noEntry++
		}
	}
	if noEntry != 2 {
		t.Errorf("want 2 no-registry-entry findings, got %d", noEntry)
	}
}

// TestStaleallow runs the full production suppression pipeline: used
// annotations vanish, dead ones become staleallow findings, and a
// staleallow annotation can excuse a deliberately kept dead annotation.
func TestStaleallow(t *testing.T) {
	bad := fixture(t, "stalebad")
	checkFixture(t, bad, applySuppressions(bad, errdiscard(bad, "repro/")))

	good := fixture(t, "stalegood")
	checkFixture(t, good, applySuppressions(good, errdiscard(good, "repro/")))
}

// TestSuppressionDiagnostics checks that malformed annotations are findings
// themselves and register no suppression: the unknown-check and
// missing-reason sites each yield one "suppression" finding, and the error
// discards they fail to cover are still reported.
func TestSuppressionDiagnostics(t *testing.T) {
	p := fixture(t, "supbad")
	findings := filterSuppressed(p, errdiscard(p, "repro/"))
	counts := make(map[string]int)
	for _, f := range findings {
		counts[f.Check]++
	}
	if counts["suppression"] != 2 {
		t.Errorf("want 2 suppression findings, got %d: %v", counts["suppression"], findings)
	}
	if counts["errdiscard"] != 2 {
		t.Errorf("want 2 uncovered errdiscard findings, got %d: %v", counts["errdiscard"], findings)
	}
}

// TestRepoClean runs the production configuration over every production
// package: the merged tree must stay lint-clean. Skipped under -short (it
// type-checks the whole module).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	repoRoot, module, err := findRepoRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := listPackages(repoRoot, module, []string{"internal", "cmd"})
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(repoRoot, module)
	for _, ip := range pkgs {
		p, err := loader.Load(ip)
		if err != nil {
			t.Fatalf("load %s: %v", ip, err)
		}
		for _, f := range runConfigured(p, nil) {
			t.Errorf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
		}
	}
}
