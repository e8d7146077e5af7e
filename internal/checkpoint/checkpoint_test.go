package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func unit(exp string, point, trial int) Unit {
	return Unit{Experiment: exp, Point: point, Trial: trial,
		Seed: uint64(trial) * 7, Spec: "n=800"}
}

func TestRecordLookupRoundTrip(t *testing.T) {
	j := New()
	u := unit("E03", 1, 2)
	if _, ok := j.Lookup(u); ok {
		t.Fatal("empty journal claims a unit")
	}
	want := Result{Completed: true, Time: 123, CZTime: 40, SuburbLag: 83, Informed: 800, N: 800}
	j.Record(u, want)
	got, ok := j.Lookup(u)
	if !ok || got != want {
		t.Fatalf("Lookup = %+v, %v; want %+v", got, ok, want)
	}
	// A unit differing only in Spec is different work.
	other := u
	other.Spec = "n=4000"
	if _, ok := j.Lookup(other); ok {
		t.Error("spec mismatch must miss")
	}
	if j.Len() != 1 {
		t.Errorf("Len = %d", j.Len())
	}
}

func TestFlushAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res := Result{Completed: true, Time: 10, CZTime: -1, SuburbLag: -1, Informed: 5, N: 5}
	// Record out of order; the file must come out sorted.
	j.Record(unit("E04", 0, 1), res)
	j.Record(unit("E03", 0, 0), res)
	j.Record(unit("E03", 0, 1), Result{Completed: false, Time: 99, CZTime: -1, SuburbLag: -1, Informed: 3, N: 5})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 3 {
		t.Fatalf("reloaded %d entries, want 3", re.Len())
	}
	got, ok := re.Lookup(unit("E03", 0, 1))
	if !ok || got.Time != 99 || got.Completed {
		t.Fatalf("reloaded entry = %+v, %v", got, ok)
	}
	entries := re.Entries()
	if entries[0].Experiment != "E03" || entries[0].Trial != 0 ||
		entries[2].Experiment != "E04" {
		t.Errorf("entries not in deterministic order: %+v", entries)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"schema":"manhattanflood/checkpoint/v1"}`) {
		t.Errorf("missing schema header: %q", string(data)[:60])
	}
}

func TestFlushIsAtomicReplacement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(unit("E03", 0, 0), Result{Completed: true, Time: 1})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	j.Record(unit("E03", 0, 1), Result{Completed: true, Time: 2})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	// No temp droppings survive a successful flush.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Errorf("second flush lost entries: %d", re.Len())
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Errorf("Len = %d", j.Len())
	}
	// In-memory journal Flush is a no-op.
	if err := New().Flush(); err != nil {
		t.Error(err)
	}
}

func TestOpenRejectsCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	badHeader := filepath.Join(dir, "bad_header.jsonl")
	if err := os.WriteFile(badHeader, []byte("{\"schema\":\"something/else\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badHeader); err == nil {
		t.Error("foreign schema accepted")
	}

	badLine := filepath.Join(dir, "bad_line.jsonl")
	content := "{\"schema\":\"manhattanflood/checkpoint/v1\"}\n{not json\n"
	if err := os.WriteFile(badLine, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badLine); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("corrupt line error = %v, want line number", err)
	}
}

// TestTruncatedTailIsUncommittedTrial is the corruption-injection test
// for crash-mid-append: a final line without a trailing newline that does
// not parse must be dropped as an uncommitted trial, while every
// terminated line before it survives. Corruption anywhere else stays a
// hard error (see TestOpenRejectsCorruptJournal).
func TestTruncatedTailIsUncommittedTrial(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.RecordDurable(unit("E03", 0, i), Result{Completed: true, Time: 10 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Inject the crash: chop the file mid-way through the last line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(data) - 9 // inside the final entry's JSON, newline gone
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatalf("truncated tail must not be fatal: %v", err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2 (tail dropped)", re.Len())
	}
	if _, ok := re.Lookup(unit("E03", 0, 2)); ok {
		t.Error("the torn trial must read as uncommitted")
	}

	// OpenAppend must clear the partial tail so the next append starts on
	// a clean line boundary — the re-run of the torn trial lands exactly
	// where the torn record was.
	ja, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ja.RecordDurable(unit("E03", 0, 2), Result{Completed: true, Time: 12}); err != nil {
		t.Fatal(err)
	}
	if err := ja.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Len() != 3 {
		t.Fatalf("repaired journal has %d entries, want 3", final.Len())
	}
	if got, ok := final.Lookup(unit("E03", 0, 2)); !ok || got.Time != 12 {
		t.Errorf("re-recorded trial = %+v, %v", got, ok)
	}
}

// TestTruncatedHeaderIsEmptyJournal: a crash while the header itself was
// being written leaves zero committed work — the journal loads empty.
func TestTruncatedHeaderIsEmptyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(`{"sche`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatalf("torn header must read as empty, got %v", err)
	}
	if j.Len() != 0 {
		t.Errorf("Len = %d, want 0", j.Len())
	}
	// And OpenAppend must be able to rebuild it from scratch.
	ja, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ja.RecordDurable(unit("E03", 0, 0), Result{Completed: true, Time: 7}); err != nil {
		t.Fatal(err)
	}
	if err := ja.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Errorf("rebuilt journal has %d entries, want 1", re.Len())
	}
}

// TestAppendSurvivesReload: RecordDurable commits each unit on its own;
// no Flush required for the units to be visible to a reloading process.
func TestAppendSurvivesReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Completed: true, Time: 42, CZTime: 7, SuburbLag: 35, Informed: 9, N: 9}
	if err := j.RecordDurable(unit("E03", 1, 0), want); err != nil {
		t.Fatal(err)
	}
	// Deliberately no Flush, no Close: simulate SIGKILL by reloading now.
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := re.Lookup(unit("E03", 1, 0)); !ok || got != want {
		t.Fatalf("Lookup after reload = %+v, %v; want %+v", got, ok, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushKeepsAppendHandleUsable: a rewrite-style Flush in append mode
// replaces the inode; subsequent appends must land in the published file.
func TestFlushKeepsAppendHandleUsable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordDurable(unit("E03", 0, 0), Result{Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordDurable(unit("E03", 0, 1), Result{Time: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (post-flush append lost?)", re.Len())
	}
}

func TestRerecordOverwrites(t *testing.T) {
	j := New()
	u := unit("E03", 0, 0)
	j.Record(u, Result{Time: 1})
	j.Record(u, Result{Time: 2})
	if j.Len() != 1 {
		t.Fatalf("Len = %d", j.Len())
	}
	if got, _ := j.Lookup(u); got.Time != 2 {
		t.Errorf("Time = %d, want last write", got.Time)
	}
}

func TestConcurrentRecord(t *testing.T) {
	j := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.Record(unit("E03", w, i), Result{Time: i})
			}
		}(w)
	}
	wg.Wait()
	if j.Len() != 800 {
		t.Errorf("Len = %d, want 800", j.Len())
	}
}

// FuzzOpenAppend feeds arbitrary bytes to OpenAppend as an existing
// journal. It must either return an error or return a journal that
// accepts one RecordDurable; after Close, a fresh Open must hold every
// entry OpenAppend loaded plus the new one. The seeds are the journals
// of TestTruncatedTailIsUncommittedTrial, TestTruncatedHeaderIsEmptyJournal
// and TestOpenRejectsCorruptJournal.
func FuzzOpenAppend(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.jsonl")
	j, err := OpenAppend(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.RecordDurable(unit("E03", 0, i), Result{Completed: true, Time: 10 + i}); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-9]) // torn final entry
	f.Add([]byte(`{"sche`))     // torn header
	f.Add([]byte("{\"schema\":\"something/else\"}\n"))
	f.Add([]byte("{\"schema\":\"manhattanflood/checkpoint/v1\"}\n{not json\n"))

	newUnit := Unit{Experiment: "fuzz", Point: -1, Trial: -1, Seed: 1, Spec: "appended"}
	newResult := Result{Completed: true, Time: 7, CZTime: -1, SuburbLag: -1, Informed: 3, N: 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenAppend(path)
		if err != nil {
			return
		}
		loaded := j.Entries()
		if err := j.RecordDurable(newUnit, newResult); err != nil {
			t.Fatalf("RecordDurable: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		re, err := Open(path)
		if err != nil {
			t.Fatalf("reopening the appended journal: %v", err)
		}
		want := 1
		for _, e := range loaded {
			if e.Unit == newUnit {
				continue
			}
			want++
			if got, ok := re.Lookup(e.Unit); !ok || got != e.Result {
				t.Fatalf("loaded entry %+v reads back as %+v, %v", e, got, ok)
			}
		}
		if got, ok := re.Lookup(newUnit); !ok || got != newResult {
			t.Fatalf("appended entry reads back as %+v, %v", got, ok)
		}
		if re.Len() != want {
			t.Fatalf("reopened journal holds %d entries, want %d", re.Len(), want)
		}
	})
}
