package trace

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rx/internal/pagestore"
	"rx/internal/wal"
)

// Store counts and times the calls the engine makes on a pagestore.Store
// and records each as a child span of the operation in flight.
type Store struct {
	pagestore.Store
	rec *Recorder

	Reads, Writes, Syncs atomic.Int64
	ReadNS, WriteNS      atomic.Int64
}

// WrapStore wraps inner; rec may be nil to count without spans.
func WrapStore(inner pagestore.Store, rec *Recorder) *Store { return &Store{Store: inner, rec: rec} }

// ReadPage implements pagestore.Store.
func (s *Store) ReadPage(id pagestore.PageID, buf []byte) error {
	t := time.Now()
	err := s.Store.ReadPage(id, buf)
	d := time.Since(t)
	s.Reads.Add(1)
	s.ReadNS.Add(int64(d))
	s.rec.Child("pagestore.read", t, d)
	return err
}

// WritePage implements pagestore.Store.
func (s *Store) WritePage(id pagestore.PageID, buf []byte) error {
	t := time.Now()
	err := s.Store.WritePage(id, buf)
	d := time.Since(t)
	s.Writes.Add(1)
	s.WriteNS.Add(int64(d))
	s.rec.Child("pagestore.write", t, d)
	return err
}

// Sync implements pagestore.Store.
func (s *Store) Sync() error {
	t := time.Now()
	err := s.Store.Sync()
	d := time.Since(t)
	s.Syncs.Add(1)
	s.rec.Child("pagestore.sync", t, d)
	return err
}

// Device counts and times the calls the engine makes on a wal.Device.
type Device struct {
	wal.Device
	rec *Recorder

	Writes, WriteBytes, Syncs atomic.Int64

	mu      sync.Mutex
	syncDur []int64
}

// WrapDevice wraps inner; rec may be nil to count without spans.
func WrapDevice(inner wal.Device, rec *Recorder) *Device { return &Device{Device: inner, rec: rec} }

// WriteAt implements wal.Device.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := d.Device.WriteAt(p, off)
	el := time.Since(t)
	d.Writes.Add(1)
	d.WriteBytes.Add(int64(n))
	d.rec.Child("wal.write", t, el)
	return n, err
}

// Sync implements wal.Device.
func (d *Device) Sync() error {
	t := time.Now()
	err := d.Device.Sync()
	el := time.Since(t)
	d.Syncs.Add(1)
	d.mu.Lock()
	d.syncDur = append(d.syncDur, int64(el))
	d.mu.Unlock()
	d.rec.Child("wal.sync", t, el)
	return err
}

// SyncQuantile returns the q-quantile of the sync durations seen since the
// last ResetSyncs, in milliseconds.
func (d *Device) SyncQuantile(q float64) float64 {
	d.mu.Lock()
	s := append([]int64(nil), d.syncDur...)
	d.mu.Unlock()
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(q*float64(len(s)-1))]) / 1e6
}

// ResetSyncs forgets the sync durations seen so far (set-up's syncs are not
// the timed phase's).
func (d *Device) ResetSyncs() {
	d.mu.Lock()
	d.syncDur = d.syncDur[:0]
	d.mu.Unlock()
}

// Listener counts the bytes and calls on every connection it accepts: the
// server side of the wire.
type Listener struct {
	net.Listener
	rec *Recorder

	ReadCalls, WriteCalls atomic.Int64
	ReadBytes, WriteBytes atomic.Int64
}

// WrapListener wraps inner; rec may be nil to count without spans.
func WrapListener(inner net.Listener, rec *Recorder) *Listener {
	return &Listener{Listener: inner, rec: rec}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, l: l}, nil
}

type conn struct {
	net.Conn
	l *Listener
}

// Read counts only: a server-side read also waits for the next request, so
// its duration is not work.
func (c *conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.ReadCalls.Add(1)
	c.l.ReadBytes.Add(int64(n))
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.l.WriteCalls.Add(1)
	c.l.WriteBytes.Add(int64(n))
	c.l.rec.Child("wire.write", t, time.Since(t))
	return n, err
}
