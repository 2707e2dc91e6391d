// Package janitor enforces disk quotas over the sweep service's
// artifact directories. Crash dumps (<id>.crash.json) are keyed by
// content fingerprint and per-job result logs (<job>.results) by job,
// so both accumulate without bound as distinct specs flow through the
// service; the janitor reclaims them under two quotas — a maximum age and a
// maximum total byte footprint — deleting least-recently-written files
// first (LRU by mtime) and never touching a file whose fingerprint is
// pinned (in flight).
//
// The filesystem is an injectable seam (FS), so quota logic, disk-full
// behaviour and partial-failure paths (a Remove that errors, a ReadDir
// that fails mid-sweep) are all unit-testable without touching a real
// disk.
package janitor

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// FS is the filesystem seam the janitor operates through. The real
// implementation is OSFS; tests inject fakes that fail on demand.
type FS interface {
	// ReadDir lists a directory, like os.ReadDir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// Remove deletes one file, like os.Remove.
	Remove(path string) error
}

type osFS struct{}

func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }

// OSFS returns the real-filesystem implementation of FS.
func OSFS() FS { return osFS{} }

// Config tunes one janitor.
type Config struct {
	// Dir is the directory to garbage-collect. Required.
	Dir string

	// MaxBytes bounds the total size of managed files; past it the
	// oldest unpinned files are deleted until the directory fits.
	// Zero disables the byte quota.
	MaxBytes int64

	// MaxAge deletes managed files older than this, regardless of the
	// byte quota. Zero disables the age quota.
	MaxAge time.Duration

	// Interval is the cadence of Run's periodic sweeps (default 30s).
	Interval time.Duration

	// Pinned, when non-nil, reports whether a file (by base name) must
	// be kept: the service pins every in-flight point's crash dump and
	// every live or recently read job's result log.
	Pinned func(name string) bool

	// FS is the filesystem seam (default OSFS()).
	FS FS

	// Now is the clock (default time.Now); injectable for age tests.
	Now func() time.Time
}

// managed selects the files the janitor manages: the two artifact kinds
// the sweep service writes, crash dumps and per-job result logs. Foreign
// files in the directory are never deleted.
func managed(name string) bool {
	return strings.HasSuffix(name, ".crash.json") || strings.HasSuffix(name, ".results")
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.FS == nil {
		c.FS = OSFS()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Report describes one sweep.
type Report struct {
	// Scanned counts managed files seen; ScannedBytes their total size.
	Scanned      int   `json:"scanned"`
	ScannedBytes int64 `json:"scanned_bytes"`
	// Deleted counts files removed; FreedBytes their total size.
	Deleted    int   `json:"deleted"`
	FreedBytes int64 `json:"freed_bytes"`
	// Pinned counts files spared by the pin callback that a quota
	// would otherwise have deleted.
	Pinned int `json:"pinned"`
	// Errors counts failed filesystem operations (the sweep carries on
	// past them; the affected bytes stay in LiveBytes).
	Errors int `json:"errors"`
	// LiveBytes is the managed footprint left after the sweep.
	LiveBytes int64 `json:"live_bytes"`
}

// Stats accumulates across sweeps.
type Stats struct {
	Sweeps        int64 `json:"sweeps"`
	Deleted       int64 `json:"deleted"`
	FreedBytes    int64 `json:"freed_bytes"`
	Errors        int64 `json:"errors"`
	LastLiveBytes int64 `json:"last_live_bytes"`
}

// Janitor garbage-collects one directory under Config's quotas. Safe
// for concurrent use. Use New.
type Janitor struct {
	cfg Config

	mu    sync.Mutex
	stats Stats
}

// New builds a janitor.
func New(cfg Config) (*Janitor, error) {
	if cfg.Dir == "" {
		return nil, errors.New("janitor: Dir is required")
	}
	return &Janitor{cfg: cfg.withDefaults()}, nil
}

// Stats snapshots the accumulated counters.
func (j *Janitor) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Run sweeps every Interval until ctx is cancelled. One sweep runs
// immediately, so a restarted server reclaims a bloated directory
// before serving.
func (j *Janitor) Run(ctx context.Context) {
	j.Sweep()
	t := time.NewTicker(j.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			j.Sweep()
		}
	}
}

// managedFile is one file the janitor may delete.
type managedFile struct {
	name  string
	size  int64
	mtime time.Time
}

// Sweep performs one garbage-collection pass: first the age quota,
// then — on whatever survives — the byte quota, oldest first. Pinned
// files are never deleted; filesystem errors are counted and skipped,
// never fatal (a janitor that dies on the first bad file stops
// protecting the disk exactly when the disk is misbehaving).
func (j *Janitor) Sweep() Report {
	var rep Report
	now := j.cfg.Now()

	entries, err := j.cfg.FS.ReadDir(j.cfg.Dir)
	if err != nil {
		rep.Errors++
		j.account(rep)
		return rep
	}

	var files []managedFile
	for _, e := range entries {
		if e.IsDir() || !managed(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			rep.Errors++
			continue
		}
		files = append(files, managedFile{name: e.Name(), size: info.Size(), mtime: info.ModTime()})
		rep.Scanned++
		rep.ScannedBytes += info.Size()
	}

	pinned := func(name string) bool {
		return j.cfg.Pinned != nil && j.cfg.Pinned(name)
	}
	// A file both over the age quota and inside the byte-quota overshoot
	// is spared by both passes but is one spared file: count it once.
	pinCounted := map[string]bool{}
	countPin := func(name string) {
		if !pinCounted[name] {
			pinCounted[name] = true
			rep.Pinned++
		}
	}
	remove := func(f managedFile) bool {
		if err := j.cfg.FS.Remove(filepath.Join(j.cfg.Dir, f.name)); err != nil {
			rep.Errors++
			return false
		}
		rep.Deleted++
		rep.FreedBytes += f.size
		return true
	}

	// Oldest first: both quotas reclaim in LRU-by-mtime order.
	sort.Slice(files, func(a, b int) bool {
		if !files[a].mtime.Equal(files[b].mtime) {
			return files[a].mtime.Before(files[b].mtime)
		}
		return files[a].name < files[b].name
	})

	live := rep.ScannedBytes
	var survivors []managedFile
	for _, f := range files {
		if j.cfg.MaxAge > 0 && now.Sub(f.mtime) > j.cfg.MaxAge {
			if pinned(f.name) {
				countPin(f.name)
				survivors = append(survivors, f)
				continue
			}
			if remove(f) {
				live -= f.size
			}
			continue
		}
		survivors = append(survivors, f)
	}
	if j.cfg.MaxBytes > 0 {
		for _, f := range survivors {
			if live <= j.cfg.MaxBytes {
				break
			}
			if pinned(f.name) {
				countPin(f.name)
				continue
			}
			if remove(f) {
				live -= f.size
			}
		}
	}
	rep.LiveBytes = live
	j.account(rep)
	return rep
}

func (j *Janitor) account(rep Report) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats.Sweeps++
	j.stats.Deleted += int64(rep.Deleted)
	j.stats.FreedBytes += rep.FreedBytes
	j.stats.Errors += int64(rep.Errors)
	j.stats.LastLiveBytes = rep.LiveBytes
}
