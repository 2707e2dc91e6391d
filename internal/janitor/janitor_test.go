package janitor

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeFS is an in-memory FS with injectable failures.
type fakeFS struct {
	mu sync.Mutex
	// files maps base name -> (size, mtime).
	files map[string]fakeFile

	readDirErr error
	removeErr  map[string]error // base name -> error
	infoErr    map[string]bool  // base name -> Info() fails
	removed    []string
}

type fakeFile struct {
	size  int64
	mtime time.Time
}

func newFakeFS() *fakeFS {
	return &fakeFS{
		files:     map[string]fakeFile{},
		removeErr: map[string]error{},
		infoErr:   map[string]bool{},
	}
}

func (f *fakeFS) add(name string, size int64, mtime time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files[name] = fakeFile{size: size, mtime: mtime}
}

func (f *fakeFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.readDirErr != nil {
		return nil, f.readDirErr
	}
	names := make([]string, 0, len(f.files))
	for n := range f.files {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, 0, len(names))
	for _, n := range names {
		out = append(out, &fakeEntry{fs: f, name: n})
	}
	return out, nil
}

func (f *fakeFS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name := filepath.Base(path)
	if err := f.removeErr[name]; err != nil {
		return err
	}
	if _, ok := f.files[name]; !ok {
		return fs.ErrNotExist
	}
	delete(f.files, name)
	f.removed = append(f.removed, name)
	return nil
}

func (f *fakeFS) names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var names []string
	for n := range f.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type fakeEntry struct {
	fs   *fakeFS
	name string
}

func (e *fakeEntry) Name() string      { return e.name }
func (e *fakeEntry) IsDir() bool       { return false }
func (e *fakeEntry) Type() fs.FileMode { return 0 }
func (e *fakeEntry) Info() (fs.FileInfo, error) {
	e.fs.mu.Lock()
	defer e.fs.mu.Unlock()
	if e.fs.infoErr[e.name] {
		return nil, errors.New("injected stat failure")
	}
	f, ok := e.fs.files[e.name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return &fakeInfo{name: e.name, file: f}, nil
}

type fakeInfo struct {
	name string
	file fakeFile
}

func (i *fakeInfo) Name() string       { return i.name }
func (i *fakeInfo) Size() int64        { return i.file.size }
func (i *fakeInfo) Mode() fs.FileMode  { return 0o644 }
func (i *fakeInfo) ModTime() time.Time { return i.file.mtime }
func (i *fakeInfo) IsDir() bool        { return false }
func (i *fakeInfo) Sys() interface{}   { return nil }

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newTestJanitor(t *testing.T, ffs *fakeFS, cfg Config) *Janitor {
	t.Helper()
	cfg.Dir = "artifacts"
	cfg.FS = ffs
	if cfg.Now == nil {
		cfg.Now = func() time.Time { return t0 }
	}
	j, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return j
}

// TestSweepByteQuotaLRU: past the byte quota, the oldest files go
// first, and deletion stops as soon as the directory fits.
func TestSweepByteQuotaLRU(t *testing.T) {
	ffs := newFakeFS()
	ffs.add("a.results", 100, t0.Add(-4*time.Hour)) // oldest
	ffs.add("b.results", 100, t0.Add(-3*time.Hour))
	ffs.add("c.crash.json", 100, t0.Add(-2*time.Hour))
	ffs.add("d.results", 100, t0.Add(-1*time.Hour)) // newest

	j := newTestJanitor(t, ffs, Config{MaxBytes: 250})
	rep := j.Sweep()

	if rep.Deleted != 2 || rep.FreedBytes != 200 {
		t.Errorf("deleted %d files / %d bytes, want 2 / 200", rep.Deleted, rep.FreedBytes)
	}
	if rep.LiveBytes != 200 {
		t.Errorf("live bytes %d, want 200", rep.LiveBytes)
	}
	want := []string{"c.crash.json", "d.results"}
	if got := ffs.names(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("survivors %v, want %v (LRU order violated)", got, want)
	}
}

// TestSweepAgeQuota: files past MaxAge are deleted even when the byte
// quota is satisfied.
func TestSweepAgeQuota(t *testing.T) {
	ffs := newFakeFS()
	ffs.add("old.results", 10, t0.Add(-48*time.Hour))
	ffs.add("fresh.results", 10, t0.Add(-time.Minute))

	j := newTestJanitor(t, ffs, Config{MaxAge: 24 * time.Hour})
	rep := j.Sweep()
	if rep.Deleted != 1 {
		t.Fatalf("deleted %d, want 1", rep.Deleted)
	}
	if got := ffs.names(); len(got) != 1 || got[0] != "fresh.results" {
		t.Errorf("survivors %v, want [fresh.results]", got)
	}
}

// TestSweepPinnedNeverDeleted: a pinned file survives both quotas, and
// the report counts the spare exactly once even when both the age pass
// and the byte pass would have deleted it.
func TestSweepPinnedNeverDeleted(t *testing.T) {
	ffs := newFakeFS()
	ffs.add("pinned.results", 100, t0.Add(-48*time.Hour)) // oldest AND over-age
	ffs.add("loose.results", 100, t0.Add(-1*time.Hour))

	j := newTestJanitor(t, ffs, Config{
		MaxBytes: 50, // both files are over quota
		MaxAge:   24 * time.Hour,
		Pinned:   func(name string) bool { return name == "pinned.results" },
	})
	rep := j.Sweep()
	if got := ffs.names(); len(got) != 1 || got[0] != "pinned.results" {
		t.Fatalf("survivors %v, want [pinned.results]", got)
	}
	if rep.Pinned != 1 {
		t.Errorf("Pinned = %d, want 1 (one spared file, even though both quotas hit it)", rep.Pinned)
	}
	if rep.LiveBytes != 100 {
		t.Errorf("live bytes %d, want 100 (pinned file still on disk)", rep.LiveBytes)
	}
}

// TestSweepForeignFilesUntouched: files outside the managed suffixes
// are invisible to every quota.
func TestSweepForeignFilesUntouched(t *testing.T) {
	ffs := newFakeFS()
	ffs.add("precious.txt", 1<<20, t0.Add(-999*time.Hour))
	ffs.add("a.results", 10, t0.Add(-1*time.Hour))

	j := newTestJanitor(t, ffs, Config{MaxBytes: 5, MaxAge: time.Hour})
	rep := j.Sweep()
	if rep.Scanned != 1 {
		t.Errorf("scanned %d files, want 1 (foreign file must not be managed)", rep.Scanned)
	}
	got := ffs.names()
	found := false
	for _, n := range got {
		if n == "precious.txt" {
			found = true
		}
	}
	if !found {
		t.Fatalf("foreign file deleted; survivors %v", got)
	}
}

// TestSweepRemoveErrorCounted: a failing Remove is counted, the file's
// bytes stay live, and the sweep still deletes what it can.
func TestSweepRemoveErrorCounted(t *testing.T) {
	ffs := newFakeFS()
	ffs.add("stuck.results", 100, t0.Add(-3*time.Hour))
	ffs.add("ok.results", 100, t0.Add(-2*time.Hour))
	ffs.removeErr["stuck.results"] = errors.New("injected EIO")

	j := newTestJanitor(t, ffs, Config{MaxBytes: 50})
	rep := j.Sweep()
	if rep.Errors != 1 {
		t.Errorf("errors %d, want 1", rep.Errors)
	}
	if rep.Deleted != 1 {
		t.Errorf("deleted %d, want 1 (the healthy file)", rep.Deleted)
	}
	if rep.LiveBytes != 100 {
		t.Errorf("live bytes %d, want 100 (failed delete still occupies disk)", rep.LiveBytes)
	}
}

// TestSweepReadDirError: a failing directory listing is one counted
// error and an otherwise empty report — never a panic or a wild delete.
func TestSweepReadDirError(t *testing.T) {
	ffs := newFakeFS()
	ffs.readDirErr = errors.New("injected ENOSPC-adjacent failure")
	j := newTestJanitor(t, ffs, Config{MaxBytes: 1})
	rep := j.Sweep()
	if rep.Errors != 1 || rep.Deleted != 0 || rep.Scanned != 0 {
		t.Errorf("report %+v, want exactly one error and nothing else", rep)
	}
	if s := j.Stats(); s.Errors != 1 || s.Sweeps != 1 {
		t.Errorf("stats %+v, want errors=1 sweeps=1", s)
	}
}

// TestSweepInfoErrorSkipsFile: a file whose Stat fails is skipped (and
// counted), not treated as zero-sized.
func TestSweepInfoErrorSkipsFile(t *testing.T) {
	ffs := newFakeFS()
	ffs.add("ghost.results", 100, t0.Add(-3*time.Hour))
	ffs.add("ok.results", 100, t0.Add(-2*time.Hour))
	ffs.infoErr["ghost.results"] = true

	j := newTestJanitor(t, ffs, Config{MaxBytes: 1000})
	rep := j.Sweep()
	if rep.Errors != 1 || rep.Scanned != 1 {
		t.Errorf("report %+v, want errors=1 scanned=1", rep)
	}
}

// TestStatsAccumulate: counters add up across sweeps.
func TestStatsAccumulate(t *testing.T) {
	ffs := newFakeFS()
	ffs.add("a.results", 100, t0.Add(-2*time.Hour))
	ffs.add("b.results", 100, t0.Add(-1*time.Hour))
	j := newTestJanitor(t, ffs, Config{MaxBytes: 100})
	j.Sweep()
	ffs.add("c.results", 100, t0.Add(-time.Minute))
	j.Sweep()
	s := j.Stats()
	if s.Sweeps != 2 || s.Deleted != 2 || s.FreedBytes != 200 {
		t.Errorf("stats %+v, want sweeps=2 deleted=2 freed=200", s)
	}
	if s.LastLiveBytes != 100 {
		t.Errorf("last live bytes %d, want 100", s.LastLiveBytes)
	}
}

// TestJanitorRealFS: end-to-end against a real temp directory, through
// Run with a cancelled context (one immediate sweep, then exit).
func TestJanitorRealFS(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.results")
	if err := os.WriteFile(old, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fresh.results"), make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.me"), make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := New(Config{Dir: dir, MaxAge: 24 * time.Hour, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j.Run(ctx) // immediate sweep, then returns on the dead context

	if _, err := os.Stat(old); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("over-age file still present: %v", err)
	}
	for _, name := range []string{"fresh.results", "keep.me"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s unexpectedly deleted: %v", name, err)
		}
	}
	if s := j.Stats(); s.Deleted != 1 {
		t.Errorf("deleted %d, want 1", s.Deleted)
	}
}

// TestNewRequiresDir: the one construction error.
func TestNewRequiresDir(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without Dir succeeded")
	}
}
