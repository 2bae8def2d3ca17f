package learn

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cmm/internal/faultinject"
)

// ErrNoModel is returned by Current/CurrentFingerprint when the registry
// has no promoted model yet, and by Rollback when there is no earlier
// model to roll back to.
var ErrNoModel = errors.New("learn: registry has no model")

// DefaultKeep is how many promoted models a registry retains on disk.
const DefaultKeep = 5

// Promotion is one entry in the registry's promotion history, most
// recent last. The last entry always names the current model.
type Promotion struct {
	Fingerprint string    `json:"fingerprint"`
	Note        string    `json:"note,omitempty"`
	PromotedAt  time.Time `json:"promoted_at"`
}

// Rejection records why a candidate model was archived instead of
// promoted.
type Rejection struct {
	Fingerprint string    `json:"fingerprint"`
	Reason      string    `json:"reason"`
	ArchivedAt  time.Time `json:"archived_at"`
}

// Registry is a versioned model store on disk:
//
//	<dir>/<fingerprint>.json   model envelopes, content-addressed
//	<dir>/current              one-line fingerprint of the serving model
//	<dir>/history.json         promotion log, most recent last
//	<dir>/rejected/<fp>.json   archived candidates that failed the gates
//	<dir>/rejected/<fp>.reason the matching failure reason
//
// Every pointer and envelope write goes through tmp+rename, so a reader
// polling `current` either sees the old state or the new one, never a
// half-written file. A model file that fails Validate on load is
// quarantined as <name>.corrupt (the runstore convention) so the bad
// bytes are kept for inspection without being retried forever.
//
// The registry is safe for concurrent use within a process; across
// processes (or handles) every write has its own temp file, so concurrent
// read/promote is safe: two concurrent promoters race benignly — the last
// rename wins, and each file is one writer's complete bytes.
type Registry struct {
	dir   string
	fsys  faultinject.FS
	clock faultinject.Clock
	keep  int

	mu sync.Mutex
}

// RegistryOption customizes OpenRegistry.
type RegistryOption func(*Registry)

// WithRegistryFS substitutes the filesystem (fault injection in tests).
func WithRegistryFS(fsys faultinject.FS) RegistryOption {
	return func(r *Registry) { r.fsys = fsys }
}

// WithRegistryClock substitutes the clock used for history timestamps.
func WithRegistryClock(c faultinject.Clock) RegistryOption {
	return func(r *Registry) { r.clock = c }
}

// WithRegistryKeep sets how many promoted models are retained on disk
// (minimum 1; the current model is never pruned).
func WithRegistryKeep(n int) RegistryOption {
	return func(r *Registry) { r.keep = n }
}

// OpenRegistry opens (creating if needed) the model registry rooted at dir.
func OpenRegistry(dir string, opts ...RegistryOption) (*Registry, error) {
	r := &Registry{
		dir:   dir,
		fsys:  faultinject.OS{},
		clock: faultinject.RealClock{},
		keep:  DefaultKeep,
	}
	for _, o := range opts {
		o(r)
	}
	if r.keep < 1 {
		r.keep = 1
	}
	if err := r.fsys.MkdirAll(filepath.Join(dir, "rejected"), 0o755); err != nil {
		return nil, fmt.Errorf("learn: open registry %s: %w", dir, err)
	}
	return r, nil
}

// Dir returns the registry root directory.
func (r *Registry) Dir() string { return r.dir }

func (r *Registry) modelPath(fp string) string {
	return filepath.Join(r.dir, fp+".json")
}

func (r *Registry) currentPath() string { return filepath.Join(r.dir, "current") }
func (r *Registry) historyPath() string { return filepath.Join(r.dir, "history.json") }

// Promote validates m, persists its envelope, appends to the promotion
// history, flips the current pointer, and prunes old models past the
// retention limit. Returns the promoted fingerprint.
func (r *Registry) Promote(m *Model, note string) (string, error) {
	if err := m.Validate(); err != nil {
		return "", fmt.Errorf("learn: promote: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	fp := m.Fingerprint()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("learn: promote: marshal: %w", err)
	}
	if err := faultinject.WriteFileAtomic(r.fsys, r.modelPath(fp), append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("learn: promote %s: %w", fp, err)
	}

	hist, err := r.history()
	if err != nil {
		return "", err
	}
	hist = append(hist, Promotion{Fingerprint: fp, Note: note, PromotedAt: r.clock.Now().UTC()})
	if err := r.writeHistory(hist); err != nil {
		return "", err
	}

	// The pointer flip is last: a crash before this line leaves the old
	// model serving with the new envelope already durable.
	if err := faultinject.WriteFileAtomic(r.fsys, r.currentPath(), []byte(fp+"\n"), 0o644); err != nil {
		return "", fmt.Errorf("learn: promote %s: flip current: %w", fp, err)
	}
	r.prune(hist)
	return fp, nil
}

// CurrentFingerprint reads the current pointer without loading the model
// — the cheap poll a serving process does on its reload interval.
// Returns ErrNoModel when nothing has been promoted.
func (r *Registry) CurrentFingerprint() (string, error) {
	b, err := r.fsys.ReadFile(r.currentPath())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", ErrNoModel
		}
		return "", fmt.Errorf("learn: read current pointer: %w", err)
	}
	fp := strings.TrimSpace(string(b))
	if fp == "" {
		return "", fmt.Errorf("learn: current pointer is empty")
	}
	return fp, nil
}

// Current loads and validates the model named by the current pointer.
func (r *Registry) Current() (*Model, string, error) {
	fp, err := r.CurrentFingerprint()
	if err != nil {
		return nil, "", err
	}
	m, err := r.Load(fp)
	if err != nil {
		return nil, "", err
	}
	return m, fp, nil
}

// Load reads and validates one registered model by fingerprint. A file
// that exists but fails to parse or validate is quarantined as
// <name>.corrupt and the error reported; a later retry then fails fast
// with not-exist instead of re-reading bad bytes.
func (r *Registry) Load(fp string) (*Model, error) {
	p := r.modelPath(fp)
	b, err := r.fsys.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("learn: load model %s: %w", fp, err)
	}
	var m Model
	if err := json.Unmarshal(b, &m); err != nil {
		r.quarantine(p)
		return nil, fmt.Errorf("learn: model %s is corrupt (quarantined): %w", fp, err)
	}
	if err := m.Validate(); err != nil {
		r.quarantine(p)
		return nil, fmt.Errorf("learn: model %s failed validation (quarantined): %w", fp, err)
	}
	return &m, nil
}

func (r *Registry) quarantine(path string) {
	// Best effort: losing the rename race just means someone else
	// quarantined it first.
	_ = r.fsys.Rename(path, path+".corrupt")
}

// History returns the promotion log, most recent last.
func (r *Registry) History() ([]Promotion, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.history()
}

func (r *Registry) history() ([]Promotion, error) {
	b, err := r.fsys.ReadFile(r.historyPath())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("learn: read history: %w", err)
	}
	var hist []Promotion
	if err := json.Unmarshal(b, &hist); err != nil {
		return nil, fmt.Errorf("learn: parse history: %w", err)
	}
	return hist, nil
}

func (r *Registry) writeHistory(hist []Promotion) error {
	b, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return fmt.Errorf("learn: marshal history: %w", err)
	}
	if err := faultinject.WriteFileAtomic(r.fsys, r.historyPath(), append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("learn: write history: %w", err)
	}
	return nil
}

// Rollback reverts the current pointer to the previous promotion whose
// model still loads, dropping the popped entries from the history.
// Returns the fingerprint now serving, or ErrNoModel when no loadable
// earlier model exists (the history, and the current pointer, are left
// unchanged in that case).
func (r *Registry) Rollback() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	hist, err := r.history()
	if err != nil {
		return "", err
	}
	if len(hist) == 0 {
		return "", ErrNoModel
	}
	// Walk backwards past the current entry to the most recent earlier
	// promotion that still loads cleanly.
	for cut := len(hist) - 1; cut >= 1; cut-- {
		target := hist[cut-1].Fingerprint
		if _, err := r.Load(target); err != nil {
			continue
		}
		if err := faultinject.WriteFileAtomic(r.fsys, r.currentPath(), []byte(target+"\n"), 0o644); err != nil {
			return "", fmt.Errorf("learn: rollback to %s: %w", target, err)
		}
		if err := r.writeHistory(hist[:cut]); err != nil {
			return "", err
		}
		return target, nil
	}
	return "", fmt.Errorf("learn: rollback: no earlier loadable model: %w", ErrNoModel)
}

// Archive records a candidate that failed the promotion gates: the
// envelope under rejected/<fp>.json and the failure reason alongside it.
func (r *Registry) Archive(m *Model, reason string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	fp := m.Fingerprint()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("learn: archive: marshal: %w", err)
	}
	dir := filepath.Join(r.dir, "rejected")
	if err := faultinject.WriteFileAtomic(r.fsys, filepath.Join(dir, fp+".json"), append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("learn: archive %s: %w", fp, err)
	}
	rej := Rejection{Fingerprint: fp, Reason: reason, ArchivedAt: r.clock.Now().UTC()}
	rb, err := json.MarshalIndent(rej, "", "  ")
	if err != nil {
		return "", fmt.Errorf("learn: archive: marshal reason: %w", err)
	}
	if err := faultinject.WriteFileAtomic(r.fsys, filepath.Join(dir, fp+".reason"), append(rb, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("learn: archive %s reason: %w", fp, err)
	}
	return fp, nil
}

// prune deletes model files past the retention window: only the last
// `keep` distinct fingerprints in the history (which always include the
// current model) stay on disk. Best effort — a failed remove leaves an
// unreferenced file behind, never a dangling pointer.
func (r *Registry) prune(hist []Promotion) {
	retained := map[string]bool{}
	for i := len(hist) - 1; i >= 0 && len(retained) < r.keep; i-- {
		retained[hist[i].Fingerprint] = true
	}
	for _, p := range hist {
		if !retained[p.Fingerprint] {
			_ = r.fsys.Remove(r.modelPath(p.Fingerprint))
		}
	}
}
