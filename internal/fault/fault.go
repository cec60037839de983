// Package fault provides deterministic fault injection for the storage
// layer: a Store wrapping any pagestore.Store and a Device wrapping the WAL
// device, both driven by a shared, scriptable Injector. The injector fires
// rules at exact operation indices (the Nth write, the Nth sync, ...), so a
// failing schedule is reproducible from its rule list alone.
//
// Both wrappers have an explicit durability boundary: every write is
// buffered by the wrapper and reaches the inner store/device only on a
// successful Sync, which is all-or-nothing. What happens to the buffered
// writes when the run stops is the one decision that separates the two
// crash states a real machine leaves, and each schedule chooses it:
//
//   - a crash is power loss: everything buffered since the last successful
//     Sync is discarded, so the inner store holds exactly the synced state;
//   - a kill stops the process: the OS keeps every write it accepted, so
//     everything buffered lands on the inner store/device.
//
// Either way every later operation fails with ErrCrashed, and reopening the
// inner store observes the post-crash state.
//
// Supported faults:
//
//   - Error: the Nth write or sync fails with ErrInjected and has no effect
//     (a transient I/O error — retrying the operation succeeds).
//   - Crash: the Nth write or sync simulates power loss; this and all
//     unsynced writes are lost.
//   - Kill: the process is killed at the Nth write or sync; this operation
//     never happens, every write accepted before it lands.
//   - Tear: power loss strikes during the Nth write: the first Keep bytes
//     reach the inner store/device durably (those sectors were already on
//     their way), the rest of the write and everything unsynced is lost.
//   - Flip: the Nth read returns data with one bit flipped (transient media
//     corruption; nothing on the inner store changes).
//
// An injector may also meter a DiskBudget (WithBudget): extending the page
// file or growing the log then charges the budget, and a shortfall fails
// with the typed rxerr.ErrNoSpace.
package fault

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"rx/internal/pagestore"
	"rx/internal/rxerr"
)

// ErrInjected reports a scripted transient I/O error; the operation had no
// effect and may be retried.
var ErrInjected = errors.New("fault: injected I/O error")

// ErrCrashed reports that the injector simulated a crash-stop (power loss
// or process kill); the wrapped store/device accepts no further operations.
// Reopen the inner store to observe the post-crash state.
var ErrCrashed = errors.New("fault: simulated crash-stop")

// Op classifies operations for rule matching. Write and Sync counters are
// shared between the Store and Device attached to one Injector, so a single
// schedule addresses "the Nth write the engine performs" regardless of
// whether it lands on the page file or the log.
type Op uint8

// Operation classes.
const (
	Write Op = iota + 1
	Sync
	Read
)

func (o Op) String() string {
	switch o {
	case Write:
		return "write"
	case Sync:
		return "sync"
	case Read:
		return "read"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Action selects what a rule does when it fires.
type Action uint8

// Rule actions.
const (
	// Error fails the operation with ErrInjected (no effect).
	Error Action = iota + 1
	// Crash simulates power loss at this operation.
	Crash
	// Tear crashes during this write, durably persisting only its first
	// Keep bytes.
	Tear
	// Flip flips bit Bit of the data returned by this read.
	Flip
	// Kill kills the process at this operation: every write accepted
	// before it lands.
	Kill
)

func (a Action) String() string {
	switch a {
	case Error:
		return "error"
	case Crash:
		return "crash"
	case Tear:
		return "tear"
	case Flip:
		return "flip"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// Rule fires Act on the Nth (1-based) operation of class Op.
type Rule struct {
	Op  Op
	N   uint64
	Act Action
	// Keep is the persisted prefix length for Tear.
	Keep int
	// Bit is the bit index (into the read buffer) for Flip.
	Bit int
}

func (r Rule) String() string {
	switch r.Act {
	case Tear:
		return fmt.Sprintf("%s@%s#%d(keep=%d)", r.Act, r.Op, r.N, r.Keep)
	case Flip:
		return fmt.Sprintf("%s@%s#%d(bit=%d)", r.Act, r.Op, r.N, r.Bit)
	}
	return fmt.Sprintf("%s@%s#%d", r.Act, r.Op, r.N)
}

// Rule constructors for common schedules.

// CrashOnWrite crashes on the Nth write.
func CrashOnWrite(n uint64) Rule { return Rule{Op: Write, N: n, Act: Crash} }

// CrashOnSync crashes on the Nth sync.
func CrashOnSync(n uint64) Rule { return Rule{Op: Sync, N: n, Act: Crash} }

// KillOnWrite kills the process on the Nth write.
func KillOnWrite(n uint64) Rule { return Rule{Op: Write, N: n, Act: Kill} }

// KillOnSync kills the process on the Nth sync.
func KillOnSync(n uint64) Rule { return Rule{Op: Sync, N: n, Act: Kill} }

// ErrorOnWrite fails the Nth write transiently.
func ErrorOnWrite(n uint64) Rule { return Rule{Op: Write, N: n, Act: Error} }

// ErrorOnSync fails the Nth sync transiently.
func ErrorOnSync(n uint64) Rule { return Rule{Op: Sync, N: n, Act: Error} }

// TearWrite crashes on the Nth write after durably persisting only its
// first keep bytes (a torn write).
func TearWrite(n uint64, keep int) Rule { return Rule{Op: Write, N: n, Act: Tear, Keep: keep} }

// FlipOnRead flips bit bit of the Nth read's result.
func FlipOnRead(n uint64, bit int) Rule { return Rule{Op: Read, N: n, Act: Flip, Bit: bit} }

// Injector counts operations and fires rules at exact indices. One Injector
// is shared by every wrapper participating in a schedule.
type Injector struct {
	// mu serializes every operation of every attached wrapper, so a fault
	// fires against one consistent state of all of them.
	mu      sync.Mutex
	rules   []Rule
	counts  map[Op]uint64
	crashed bool
	budget  *DiskBudget
	landers []func() error // the attached wrappers' landLocked
}

// NewInjector builds an injector over a schedule. An empty schedule only
// counts operations (useful for profiling a workload's op budget).
func NewInjector(rules ...Rule) *Injector {
	return &Injector{rules: rules, counts: map[Op]uint64{}}
}

// WithBudget meters the attached wrappers' growth against b: Store.Allocate
// charges one page, Device.WriteAt the bytes past the device's high-water
// size. Call it before the first operation.
func (i *Injector) WithBudget(b *DiskBudget) *Injector {
	i.budget = b
	return i
}

// Crashed reports whether a crash or kill (by rule or explicit call) fired.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Crash simulates power loss now, independent of any rule.
func (i *Injector) Crash() {
	i.mu.Lock()
	i.crashed = true
	i.mu.Unlock()
}

// Kill simulates a process kill now, independent of any rule: every write
// the wrappers accepted lands on the inner store or device. A kill after a
// crash changes nothing. The error reports a failed inner write.
func (i *Injector) Kill() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.killLocked()
}

func (i *Injector) killLocked() error {
	if i.crashed {
		return nil
	}
	i.crashed = true
	for _, land := range i.landers {
		if err := land(); err != nil {
			return err
		}
	}
	return nil
}

func (i *Injector) attach(land func() error) {
	i.mu.Lock()
	i.landers = append(i.landers, land)
	i.mu.Unlock()
}

// Counts returns how many operations of each class have been observed.
func (i *Injector) Counts() (writes, syncs, reads uint64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counts[Write], i.counts[Sync], i.counts[Read]
}

// stepLocked records one operation and returns the rule that fires on it,
// if any. It returns ErrCrashed if a crash has already happened (without
// counting the operation), marks the injector crashed when a Crash rule
// fires, and lands every accepted write when a Kill rule fires.
func (i *Injector) stepLocked(op Op) (Rule, bool, error) {
	if i.crashed {
		return Rule{}, false, ErrCrashed
	}
	i.counts[op]++
	n := i.counts[op]
	for _, r := range i.rules {
		if r.Op == op && r.N == n {
			switch r.Act {
			case Crash:
				i.crashed = true
			case Kill:
				if err := i.killLocked(); err != nil {
					return r, true, err
				}
			}
			return r, true, nil
		}
	}
	return Rule{}, false, nil
}

// Store wraps a pagestore.Store with fault injection and an explicit
// durability boundary: writes and allocations buffer in memory and reach the
// inner store only on a successful Sync or a kill. After a crash the inner
// store holds exactly the last synced state.
type Store struct {
	inj *Injector

	// Guarded by inj.mu.
	inner   pagestore.Store
	pending map[pagestore.PageID][]byte
	pages   pagestore.PageID // logical page count incl. unsynced allocations
}

// NewStore wraps inner, attaching it to the injector's schedule.
func NewStore(inner pagestore.Store, inj *Injector) *Store {
	s := &Store{
		inj:     inj,
		inner:   inner,
		pending: map[pagestore.PageID][]byte{},
		pages:   inner.NumPages(),
	}
	inj.attach(s.landLocked)
	return s
}

// visibleLocked returns the page's current contents as the OS cache would:
// pending write if any, else inner store, else zeros for pages allocated but
// never persisted.
func (s *Store) visibleLocked(id pagestore.PageID, buf []byte) error {
	if p, ok := s.pending[id]; ok {
		copy(buf[:pagestore.PageSize], p)
		return nil
	}
	if id < s.inner.NumPages() {
		return s.inner.ReadPage(id, buf)
	}
	for i := range buf[:pagestore.PageSize] {
		buf[i] = 0
	}
	return nil
}

// ReadPage implements pagestore.Store.
func (s *Store) ReadPage(id pagestore.PageID, buf []byte) error {
	s.inj.mu.Lock()
	defer s.inj.mu.Unlock()
	if id >= s.pages {
		return fmt.Errorf("%w: read page %d of %d", pagestore.ErrPageRange, id, s.pages)
	}
	if err := s.visibleLocked(id, buf); err != nil {
		return err
	}
	r, ok, err := s.inj.stepLocked(Read)
	if err != nil {
		return err
	}
	if ok && r.Act == Flip {
		bit := r.Bit % (pagestore.PageSize * 8)
		buf[bit/8] ^= 1 << (bit % 8)
	}
	return nil
}

// WritePage implements pagestore.Store. The write buffers until the next
// successful Sync.
func (s *Store) WritePage(id pagestore.PageID, buf []byte) error {
	s.inj.mu.Lock()
	defer s.inj.mu.Unlock()
	if id >= s.pages {
		return fmt.Errorf("%w: write page %d of %d", pagestore.ErrPageRange, id, s.pages)
	}
	r, ok, err := s.inj.stepLocked(Write)
	if err != nil {
		return err
	}
	if ok {
		switch r.Act {
		case Error:
			return fmt.Errorf("%w: write page %d", ErrInjected, id)
		case Crash, Kill:
			return ErrCrashed
		case Tear:
			// Power loss mid-write: the first Keep bytes hit the platter over
			// the last DURABLE image (pending writes never made it), the rest
			// of this write and everything unsynced is lost.
			torn := make([]byte, pagestore.PageSize)
			if id < s.inner.NumPages() {
				if err := s.inner.ReadPage(id, torn); err != nil {
					return err
				}
			}
			keep := r.Keep
			if keep > pagestore.PageSize {
				keep = pagestore.PageSize
			}
			copy(torn[:keep], buf[:keep])
			for s.inner.NumPages() <= id {
				if _, err := s.inner.Allocate(); err != nil {
					return err
				}
			}
			if err := s.inner.WritePage(id, torn); err != nil {
				return err
			}
			if err := s.inner.Sync(); err != nil {
				return err
			}
			s.inj.crashed = true
			return ErrCrashed
		}
	}
	img := make([]byte, pagestore.PageSize)
	copy(img, buf)
	s.pending[id] = img
	return nil
}

// Allocate implements pagestore.Store. The allocation is buffered like a
// write: it reaches the inner store on the next successful Sync and is lost
// on a crash. Under a budget it charges one page, and fails with the typed
// no-space error when the device is full.
func (s *Store) Allocate() (pagestore.PageID, error) {
	s.inj.mu.Lock()
	defer s.inj.mu.Unlock()
	if s.inj.crashed {
		return pagestore.InvalidPage, ErrCrashed
	}
	if b := s.inj.budget; b != nil && !b.Reserve(pagestore.PageSize) {
		return pagestore.InvalidPage, fmt.Errorf("%w: page file extend (budget full)", rxerr.ErrNoSpace)
	}
	id := s.pages
	s.pages++
	return id, nil
}

// NumPages implements pagestore.Store.
func (s *Store) NumPages() pagestore.PageID {
	s.inj.mu.Lock()
	defer s.inj.mu.Unlock()
	return s.pages
}

// Sync implements pagestore.Store: all-or-nothing persistence of every
// buffered allocation and write, in page order.
func (s *Store) Sync() error {
	s.inj.mu.Lock()
	defer s.inj.mu.Unlock()
	r, ok, err := s.inj.stepLocked(Sync)
	if err != nil {
		return err
	}
	if ok {
		switch r.Act {
		case Error:
			return fmt.Errorf("%w: sync", ErrInjected)
		case Crash, Kill:
			return ErrCrashed
		}
	}
	if err := s.landLocked(); err != nil {
		return err
	}
	return s.inner.Sync()
}

// landLocked writes every buffered allocation and write through to the
// inner store, in page order.
func (s *Store) landLocked() error {
	for s.inner.NumPages() < s.pages {
		if _, err := s.inner.Allocate(); err != nil {
			return err
		}
	}
	ids := make([]pagestore.PageID, 0, len(s.pending))
	for id := range s.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		if err := s.inner.WritePage(id, s.pending[id]); err != nil {
			return err
		}
	}
	s.pending = map[pagestore.PageID][]byte{}
	return nil
}

// Close implements pagestore.Store. Unsynced writes are NOT flushed — a
// close without sync persists nothing, like a crash with a clean inner
// store handle.
func (s *Store) Close() error { return s.inner.Close() }

// Inner returns the wrapped store (reopen it after a crash to observe the
// durable state).
func (s *Store) Inner() pagestore.Store { return s.inner }

// BlockDevice is the log-device contract (structurally identical to
// wal.Device, declared here to keep this package below the WAL).
type BlockDevice interface {
	io.WriterAt
	io.ReaderAt
	Size() (int64, error)
	Sync() error
	Close() error
}

type devWrite struct {
	off  int64
	data []byte
}

// Device wraps a WAL device with the same fault schedule and durability
// boundary as Store: WriteAt buffers until a successful Sync or a kill; a
// crash discards everything unsynced.
type Device struct {
	inj *Injector

	// Guarded by inj.mu.
	inner   BlockDevice
	pending []devWrite
}

// NewDevice wraps inner, attaching it to the injector's schedule.
func NewDevice(inner BlockDevice, inj *Injector) *Device {
	d := &Device{inj: inj, inner: inner}
	inj.attach(d.landLocked)
	return d
}

// WriteAt implements io.WriterAt, buffering until Sync.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	d.inj.mu.Lock()
	defer d.inj.mu.Unlock()
	r, ok, err := d.inj.stepLocked(Write)
	if err != nil {
		return 0, err
	}
	if ok {
		switch r.Act {
		case Error:
			return 0, fmt.Errorf("%w: device write at %d", ErrInjected, off)
		case Crash, Kill:
			return 0, ErrCrashed
		case Tear:
			// Power loss mid-write: the prefix lands durably, unsynced pending
			// writes are lost with the crash.
			keep := r.Keep
			if keep > len(p) {
				keep = len(p)
			}
			if keep > 0 {
				if _, err := d.inner.WriteAt(p[:keep], off); err != nil {
					return 0, err
				}
				if err := d.inner.Sync(); err != nil {
					return 0, err
				}
			}
			d.inj.crashed = true
			return 0, ErrCrashed
		}
	}
	n := len(p)
	if b := d.inj.budget; b != nil {
		n, err = d.chargeLocked(b, p, off)
	}
	if n > 0 {
		d.pending = append(d.pending, devWrite{off, append([]byte(nil), p[:n]...)})
	}
	return n, err
}

// chargeLocked charges b for the bytes of p past the device's high-water
// size; overwrites are free, as on a real filesystem. On a shortfall it
// returns how much of p fits, already charged, with the typed no-space
// error: the partial-write-then-ENOSPC case the WAL's restore-unflushed
// path must survive. The prefix may be zero at the budget edge.
func (d *Device) chargeLocked(b *DiskBudget, p []byte, off int64) (int, error) {
	size, err := d.sizeLocked()
	if err != nil {
		return 0, err
	}
	grow := off + int64(len(p)) - size
	if grow <= 0 {
		return len(p), nil
	}
	fit := b.reserveUpTo(grow)
	if fit == grow {
		return len(p), nil
	}
	keep := int64(len(p)) - (grow - fit)
	if keep <= 0 {
		b.Release(fit)
		keep = 0
	}
	return int(keep), fmt.Errorf("%w: device write at %d (budget full after %d of %d bytes)",
		rxerr.ErrNoSpace, off, keep, len(p))
}

// sizeLocked is the virtual size: inner size extended by pending writes.
// Nothing shrinks a device, so it is also the high-water size.
func (d *Device) sizeLocked() (int64, error) {
	size, err := d.inner.Size()
	if err != nil {
		return 0, err
	}
	for _, w := range d.pending {
		if end := w.off + int64(len(w.data)); end > size {
			size = end
		}
	}
	return size, nil
}

// ReadAt implements io.ReaderAt over the inner device overlaid with pending
// writes (the OS cache view).
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	d.inj.mu.Lock()
	defer d.inj.mu.Unlock()
	if d.inj.crashed {
		return 0, ErrCrashed
	}
	vsize, err := d.sizeLocked()
	if err != nil {
		return 0, err
	}
	if off >= vsize {
		return 0, io.EOF
	}
	n := len(p)
	if off+int64(n) > vsize {
		n = int(vsize - off)
	}
	for i := range p[:n] {
		p[i] = 0
	}
	if isize, err := d.inner.Size(); err != nil {
		return 0, err
	} else if off < isize {
		want := n
		if off+int64(want) > isize {
			want = int(isize - off)
		}
		if _, err := d.inner.ReadAt(p[:want], off); err != nil && err != io.EOF {
			return 0, err
		}
	}
	for _, w := range d.pending {
		lo, hi := w.off, w.off+int64(len(w.data))
		if hi <= off || lo >= off+int64(n) {
			continue
		}
		from, to := lo, hi
		if from < off {
			from = off
		}
		if to > off+int64(n) {
			to = off + int64(n)
		}
		copy(p[from-off:to-off], w.data[from-lo:to-lo])
	}
	r, ok, err := d.inj.stepLocked(Read)
	if err != nil {
		return 0, err
	}
	if ok && r.Act == Flip && n > 0 {
		bit := r.Bit % (n * 8)
		p[bit/8] ^= 1 << (bit % 8)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size implements the device contract (virtual size incl. pending writes).
func (d *Device) Size() (int64, error) {
	d.inj.mu.Lock()
	defer d.inj.mu.Unlock()
	if d.inj.crashed {
		return 0, ErrCrashed
	}
	return d.sizeLocked()
}

// Sync implements the device contract: all-or-nothing persistence of
// pending writes in order.
func (d *Device) Sync() error {
	d.inj.mu.Lock()
	defer d.inj.mu.Unlock()
	r, ok, err := d.inj.stepLocked(Sync)
	if err != nil {
		return err
	}
	if ok {
		switch r.Act {
		case Error:
			return fmt.Errorf("%w: device sync", ErrInjected)
		case Crash, Kill:
			return ErrCrashed
		}
	}
	if err := d.landLocked(); err != nil {
		return err
	}
	return d.inner.Sync()
}

// landLocked writes every pending write through to the inner device, in
// order.
func (d *Device) landLocked() error {
	for _, w := range d.pending {
		if _, err := d.inner.WriteAt(w.data, w.off); err != nil {
			return err
		}
	}
	d.pending = nil
	return nil
}

// Close implements the device contract without flushing pending writes.
func (d *Device) Close() error { return d.inner.Close() }

// Inner returns the wrapped device.
func (d *Device) Inner() BlockDevice { return d.inner }
