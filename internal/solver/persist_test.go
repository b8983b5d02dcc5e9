package solver

// Persistent-cache coverage: round trip, version gating, corruption
// rejection, and the trust model for loaded verdicts (Sat models are
// re-evaluated on first use, Unsat/Unknown verdicts are sample-re-solved),
// so a stale or poisoned cache file can slow an analysis down but never
// change its answers.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"achilles/internal/expr"
)

// seedQueries issues a mix of sat and unsat queries so the cache holds both
// verdict kinds.
func seedQueries(s *Solver, n int) {
	for i := 0; i < n; i++ {
		x := v(fmt.Sprintf("x%d", i))
		s.Check([]*expr.Expr{expr.Gt(x, c(0)), expr.Lt(x, c(10))})
		s.Check([]*expr.Expr{expr.Gt(x, c(0)), expr.Lt(x, c(-5))})
	}
}

func TestCacheSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	warm := Default()
	seedQueries(warm, 4)
	if err := warm.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	cold := Default()
	loaded, err := cold.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 8 {
		t.Fatalf("loaded %d entries, want 8", loaded)
	}
	// Replay every seeded query: verdicts must match a fresh solver's, and
	// all but the sampled re-solves must be answered from the loaded cache.
	seedQueries(cold, 4)
	st := cold.Stats()
	if st.CacheHits < 7 {
		t.Errorf("only %d of 8 replayed queries hit the loaded cache", st.CacheHits)
	}
	if st.ReverifyFailed != 0 {
		t.Errorf("%d loaded verdicts failed re-verification on a faithful file", st.ReverifyFailed)
	}
	if st.Reverified == 0 {
		t.Error("no loaded verdict was re-verified (Sat hits must verify unconditionally)")
	}
	// Determinism: saving the reloaded cache reproduces the file byte for
	// byte (entries are sorted by key).
	path2 := filepath.Join(t.TempDir(), "cache2.jsonl")
	if err := cold.SaveCache(path2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Error("save → load → save is not the identity on the cache file")
	}
}

func TestCacheLoadRejectsVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	for name, header := range map[string]cacheHeader{
		"future-format.jsonl": {Format: CacheFileVersion + 1, Solver: Version},
		"other-solver.jsonl":  {Format: CacheFileVersion, Solver: "solver/0-ancient"},
	} {
		path := filepath.Join(dir, name)
		line, _ := json.Marshal(header)
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Default().LoadCache(path); !errors.Is(err, ErrCacheVersion) {
			t.Errorf("%s: want ErrCacheVersion, got %v", name, err)
		}
	}
}

func TestCacheLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	hdr, _ := json.Marshal(cacheHeader{Format: CacheFileVersion, Solver: Version})
	cases := map[string]string{
		"empty":       "",
		"junk-header": "not json at all\n",
		"junk-entry":  string(hdr) + "\n{broken\n",
		"bad-verdict": string(hdr) + "\n" + `{"k":"x","r":9}` + "\n",
		"empty-key":   string(hdr) + "\n" + `{"k":"","r":1}` + "\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Default().LoadCache(path); err == nil || errors.Is(err, ErrCacheVersion) {
			t.Errorf("%s: corruption not rejected (err=%v)", name, err)
		}
	}
	if _, err := Default().LoadCache(filepath.Join(dir, "no-such-file")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: want os.ErrNotExist, got %v", err)
	}
	// All-or-nothing: valid entries ahead of a corrupt line must NOT be
	// merged — "treat the file as cold" has to be literally true.
	x := v("x")
	query := []*expr.Expr{expr.Gt(x, c(0)), expr.Lt(x, c(10))}
	good, _ := json.Marshal(cacheEntry{Key: queryKey(query), Res: int(Unknown)})
	partial := filepath.Join(dir, "partial.jsonl")
	if err := os.WriteFile(partial, []byte(string(hdr)+"\n"+string(good)+"\n{truncat"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := Default()
	if n, err := s.LoadCache(partial); err == nil || n != 0 {
		t.Errorf("partial load: want 0 entries and an error, got %d, %v", n, err)
	}
	if res, _ := s.Check(query); res != Sat {
		t.Error("entry from a corrupt file was served")
	}
	if _, err := New(Options{DisableCache: true}).LoadCache("x"); !errors.Is(err, ErrCacheDisabled) {
		t.Errorf("disabled cache: want ErrCacheDisabled, got %v", err)
	}
	if err := New(Options{DisableCache: true}).SaveCache("x"); !errors.Is(err, ErrCacheDisabled) {
		t.Errorf("disabled cache save: want ErrCacheDisabled, got %v", err)
	}
}

// poisonedFile writes a cache file claiming the given verdict for the query
// (x > 0 ∧ x < 10).
func poisonedFile(t *testing.T, res Result, model expr.Env) (string, []*expr.Expr) {
	t.Helper()
	x := v("x")
	query := []*expr.Expr{expr.Gt(x, c(0)), expr.Lt(x, c(10))}
	hdr, _ := json.Marshal(cacheHeader{Format: CacheFileVersion, Solver: Version})
	ent, _ := json.Marshal(cacheEntry{Key: queryKey(query), Res: int(res), Model: model})
	path := filepath.Join(t.TempDir(), "poisoned.jsonl")
	if err := os.WriteFile(path, []byte(string(hdr)+"\n"+string(ent)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, query
}

// TestLoadedSatModelReverified: a loaded Sat verdict whose model does not
// satisfy the live query is discarded and re-solved — the answer is still a
// correct, verified model.
func TestLoadedSatModelReverified(t *testing.T) {
	path, query := poisonedFile(t, Sat, expr.Env{"x": -42}) // claims sat with a false witness
	s := Default()
	if _, err := s.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	res, m := s.Check(query)
	if res != Sat || m["x"] <= 0 || m["x"] >= 10 {
		t.Fatalf("poisoned Sat model survived: res=%v model=%v", res, m)
	}
	if st := s.Stats(); st.ReverifyFailed != 1 {
		t.Errorf("poisoned model not counted: %+v", st)
	}
}

// TestLoadedUnsatVerdictSampledResolve: the first loaded Unsat hit is
// re-solved (the deterministic sample), so a poisoned Unsat verdict for a
// satisfiable query is corrected, counted, and replaced for later hits.
func TestLoadedUnsatVerdictSampledResolve(t *testing.T) {
	path, query := poisonedFile(t, Unsat, nil) // the query is actually sat
	s := Default()
	if _, err := s.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	res, m := s.Check(query)
	if res != Sat {
		t.Fatalf("poisoned Unsat verdict served: got %v", res)
	}
	if m["x"] <= 0 || m["x"] >= 10 {
		t.Fatalf("re-solved model wrong: %v", m)
	}
	if st := s.Stats(); st.ReverifyFailed != 1 {
		t.Errorf("poisoned verdict not counted: %+v", st)
	}
	// The corrected verdict replaced the loaded one: the next hit is served
	// from cache without further re-verification.
	before := s.Stats()
	if res, _ := s.Check(query); res != Sat {
		t.Fatal("corrected verdict lost")
	}
	after := s.Stats()
	if after.CacheHits != before.CacheHits+1 || after.ReverifyFailed != before.ReverifyFailed {
		t.Errorf("corrected verdict not a plain cache hit: before %+v after %+v", before, after)
	}
}

// TestLoadedEntriesNeverDisplaceLiveVerdicts: LoadCache merges under live
// entries, so a verdict the process already proved wins over the file's.
func TestLoadedEntriesNeverDisplaceLiveVerdicts(t *testing.T) {
	s := Default()
	x := v("x")
	query := []*expr.Expr{expr.Gt(x, c(0)), expr.Lt(x, c(10))}
	if res, _ := s.Check(query); res != Sat {
		t.Fatal("seed query not sat")
	}
	path, _ := poisonedFile(t, Unsat, nil)
	loaded, err := s.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 {
		t.Errorf("loaded %d entries over live verdicts, want 0", loaded)
	}
	if res, _ := s.Check(query); res != Sat {
		t.Error("live verdict displaced by loaded entry")
	}
}

// TestSaveCacheCrashSimulation simulates a worker killed mid-save and pins
// the atomicity contract: the destination path only ever holds a complete
// cache. A crashed save leaves (at worst) an orphaned temp file in the same
// directory — which a later LoadCache of the real path never touches and a
// later SaveCache never mistakes for the destination — while the torn-write
// failure mode the temp+fsync+rename discipline exists to prevent (a
// truncated file AT the destination path) is demonstrably rejected by
// LoadCache, so nothing downstream can mistake it for a valid cache.
func TestSaveCacheCrashSimulation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.jsonl")
	warm := Default()
	seedQueries(warm, 3)
	if err := warm.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window: a save that died after writing part of its
	// temp file but before the rename. The destination must be untouched.
	torn := filepath.Join(dir, ".solver-cache-crashed")
	if err := os.WriteFile(torn, want[:len(want)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	cold := Default()
	loaded, err := cold.LoadCache(path)
	if err != nil {
		t.Fatalf("crash leftovers broke the real cache: %v", err)
	}
	if loaded != 6 {
		t.Fatalf("loaded %d entries next to crash leftovers, want 6", loaded)
	}
	got, _ := os.ReadFile(path)
	if string(got) != string(want) {
		t.Fatal("destination cache changed by a crashed save")
	}

	// A fresh save over the same path succeeds and ignores the orphan.
	if err := warm.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	if got, _ = os.ReadFile(path); string(got) != string(want) {
		t.Fatal("re-save over crash leftovers corrupted the cache")
	}

	// The counterfactual the discipline prevents: a torn file AT the
	// destination (what a non-atomic writer killed mid-write would leave) is
	// rejected outright — zero entries merged, error returned.
	tornDst := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(tornDst, want[:len(want)-7], 0o600); err != nil {
		t.Fatal(err)
	}
	if n, err := Default().LoadCache(tornDst); err == nil || n != 0 {
		t.Fatalf("torn destination file accepted: %d entries, err=%v", n, err)
	}
}

// TestCacheExportImportRoundTrip: exportCache/importCache (the layer under
// SaveCache/LoadCache) carry exactly what a cache file persists — verdicts merge
// into a cold solver, imports are marked for first-use re-verification, and
// a malformed batch is rejected all-or-nothing.
func TestCacheExportImportRoundTrip(t *testing.T) {
	warm := Default()
	seedQueries(warm, 4)
	entries, err := warm.exportCache()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("exported %d entries, want 8", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Key >= entries[i].Key {
			t.Fatal("export not sorted by key")
		}
	}

	cold := Default()
	merged, err := cold.importCache(entries)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 8 {
		t.Fatalf("merged %d entries, want 8", merged)
	}
	// Imported verdicts answer the replayed queries from cache, and none of
	// them contradict a fresh solve (faithful transfer).
	seedQueries(cold, 4)
	st := cold.Stats()
	if st.CacheHits < 7 {
		t.Errorf("only %d of 8 replayed queries hit the imported cache", st.CacheHits)
	}
	if st.ReverifyFailed != 0 {
		t.Errorf("%d imported verdicts failed re-verification", st.ReverifyFailed)
	}
	if st.Reverified == 0 {
		t.Error("imported verdicts were trusted without re-verification")
	}

	// Re-import is idempotent: nothing merges twice.
	if merged, err = cold.importCache(entries); err != nil || merged != 0 {
		t.Errorf("re-import merged %d entries (err=%v), want 0", merged, err)
	}

	// All-or-nothing validation: one bad entry rejects the whole batch.
	victim := Default()
	bad := append(append([]cacheEntry{}, entries[:2]...), cacheEntry{Key: "", Res: int(Sat)})
	if merged, err = victim.importCache(bad); err == nil || merged != 0 {
		t.Errorf("batch with invalid entry merged %d entries (err=%v)", merged, err)
	}
	if got, _ := victim.exportCache(); len(got) != 0 {
		t.Errorf("invalid batch left %d entries behind", len(got))
	}

	if _, err := New(Options{DisableCache: true}).exportCache(); !errors.Is(err, ErrCacheDisabled) {
		t.Errorf("disabled cache export: want ErrCacheDisabled, got %v", err)
	}
	if _, err := New(Options{DisableCache: true}).importCache(entries); !errors.Is(err, ErrCacheDisabled) {
		t.Errorf("disabled cache import: want ErrCacheDisabled, got %v", err)
	}
}

// TestCacheFileKeysSurviveJSON pins that canonical query keys (which embed
// NUL separators) survive the JSON encoding round trip.
func TestCacheFileKeysSurviveJSON(t *testing.T) {
	key := queryKey([]*expr.Expr{expr.Gt(v("a"), c(1)), expr.Lt(v("b"), c(2))})
	if !strings.Contains(key, "\x00") {
		t.Fatal("canonical key lost its NUL separators")
	}
	raw, err := json.Marshal(cacheEntry{Key: key, Res: int(Unknown)})
	if err != nil {
		t.Fatal(err)
	}
	var back cacheEntry
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key != key {
		t.Fatal("key did not survive the JSON round trip")
	}
}
