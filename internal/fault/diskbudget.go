// Disk-space exhaustion injection: a byte budget metered by an Injector's
// Store and Device (Injector.WithBudget), so a test can run the whole
// engine against a "device" with N bytes free and watch ENOSPC surface
// through the WAL, the buffer pool, and the transaction layer at exact,
// reproducible points. The budget only meters growth — overwriting bytes
// that already exist on the device is free, exactly like a real filesystem
// — and refill schedules model an operator freeing space after the Nth
// failure, which is what the engine's free-space watchdog needs to observe
// to leave degraded mode.

package fault

import "sync"

// Refill grows the budget's capacity by Bytes immediately after the Nth
// (1-based) denied reservation: the failing operation still fails — space
// frees after the error, not during it — but the next attempt sees the new
// capacity. A schedule of refills models an operator (or log rotation)
// freeing disk space while the engine is degraded.
type Refill struct {
	Denial uint64
	Bytes  int64
}

// DiskBudget is a byte budget shared by every wrapper attached to one
// Injector. Reservations that do not fit are denied; denials are counted so
// refill schedules fire at exact indices.
type DiskBudget struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	denials  uint64
	refills  []Refill
}

// NewDiskBudget builds a budget with capacity bytes free and an optional
// refill schedule.
func NewDiskBudget(capacity int64, refills ...Refill) *DiskBudget {
	return &DiskBudget{capacity: capacity, refills: refills}
}

// Reserve charges n bytes against the budget, reporting whether they fit.
// A denial counts toward the refill schedule and applies any refill due.
func (b *DiskBudget) Reserve(n int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n <= b.capacity {
		b.used += n
		return true
	}
	b.denyLocked()
	return false
}

// reserveUpTo charges as much of n bytes as is free and returns the bytes
// charged. A shortfall counts as a denial; a refill it triggers applies
// after the grant is sized, so the failing write sees only the space that
// existed when it hit the device.
func (b *DiskBudget) reserveUpTo(n int64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	fit := min(n, max(b.capacity-b.used, 0))
	b.used += fit
	if fit < n {
		b.denyLocked()
	}
	return fit
}

// denyLocked records a denied reservation and applies due refills.
func (b *DiskBudget) denyLocked() {
	b.denials++
	for _, r := range b.refills {
		if r.Denial == b.denials {
			b.capacity += r.Bytes
		}
	}
}

// Release returns n bytes to the budget (truncation, file deletion).
func (b *DiskBudget) Release(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
}

// SetCapacity resizes the device; shrinking below the bytes already used
// leaves Free at zero until enough is released.
func (b *DiskBudget) SetCapacity(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.capacity = n
}

// Free returns the unreserved bytes remaining — the number a statfs-style
// probe would report. The engine's free-space watchdog takes this method as
// its probe in tests.
func (b *DiskBudget) Free() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	f := b.capacity - b.used
	if f < 0 {
		f = 0
	}
	return f
}

// Used returns the bytes currently reserved.
func (b *DiskBudget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Capacity returns the current capacity (initial plus applied refills).
func (b *DiskBudget) Capacity() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity
}

// Denials returns how many reservations have been denied.
func (b *DiskBudget) Denials() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.denials
}
