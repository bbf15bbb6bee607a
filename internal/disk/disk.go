// Package disk models storage devices (HDD and SSD) and a local file store
// on top of them. Requests are chunked and serialized through a single
// device slot, so competing streams (HDFS input reads vs. map-output writes
// vs. multi-pass merge traffic) queue against each other — the disk
// contention effect §III.C of the paper studies. File contents are real
// bytes: the engines re-read exactly what they wrote.
package disk

import "onepass/internal/sim"

// Profile describes a device's service characteristics.
type Profile struct {
	Name string
	// Seek is the positioning cost charged per random-access chunk; a tenth
	// of it is charged per sequential chunk (track-to-track).
	Seek sim.Duration
	// ReadBW and WriteBW are sequential transfer rates in bytes/second.
	ReadBW  float64
	WriteBW float64
	// SeqChunk and RandChunk are the request sizes the device splits
	// sequential and random transfers into.
	SeqChunk  int64
	RandChunk int64
}

// HDD approximates the 7200rpm SATA disks of the paper's cluster.
var HDD = Profile{
	Name:      "hdd",
	Seek:      8 * sim.Millisecond,
	ReadBW:    100e6,
	WriteBW:   90e6,
	SeqChunk:  4 << 20,
	RandChunk: 256 << 10,
}

// SSD approximates the Intel SSD added in §III.C: near-zero seek, higher
// bandwidth, and random I/O nearly as fast as sequential.
var SSD = Profile{
	Name:      "ssd",
	Seek:      100 * sim.Microsecond,
	ReadBW:    250e6,
	WriteBW:   200e6,
	SeqChunk:  4 << 20,
	RandChunk: 256 << 10,
}

// Device is one storage device: a serialized request slot plus transfer
// accounting.
type Device struct {
	env     *sim.Env
	profile Profile
	slot    *sim.Resource

	bytesRead    float64
	bytesWritten float64
	// slow scales every service time; >1 models a degraded device for
	// straggler injection.
	slow float64
}

// NewDevice creates a device owned by env.
func NewDevice(env *sim.Env, name string, p Profile) *Device {
	return &Device{env: env, profile: p, slot: env.NewResource(name, 1), slow: 1}
}

// SetSlowdown scales all service times by f (>=1). Used for fault/straggler
// injection in tests.
func (d *Device) SetSlowdown(f float64) {
	if f < 1 {
		f = 1
	}
	d.slow = f
}

// BytesRead returns cumulative bytes read.
func (d *Device) BytesRead() float64 { return d.bytesRead }

// BytesWritten returns cumulative bytes written.
func (d *Device) BytesWritten() float64 { return d.bytesWritten }

// Pending returns the number of requests in service or queued right now.
func (d *Device) Pending() int { return d.slot.InUse() + d.slot.Waiting() }

// OnChange installs a hook invoked on every queue state change; the cluster
// node uses it to maintain iowait accounting.
func (d *Device) OnChange(fn func(now sim.Time, inUse, waiting int)) {
	d.slot.OnChange = fn
}

func (d *Device) transfer(p *sim.Proc, bytes int64, bw float64, sequential bool, write bool) {
	if bytes <= 0 {
		return
	}
	chunk := d.profile.SeqChunk
	seek := d.profile.Seek / 10
	if !sequential {
		chunk = d.profile.RandChunk
		seek = d.profile.Seek
	}
	for remaining := bytes; remaining > 0; remaining -= chunk {
		n := chunk
		if remaining < chunk {
			n = remaining
		}
		service := seek + sim.Seconds(float64(n)/bw)
		service = sim.Duration(float64(service) * d.slow)
		d.slot.Use(p, 1, service)
	}
	if write {
		d.bytesWritten += float64(bytes)
	} else {
		d.bytesRead += float64(bytes)
	}
}

// Read blocks p for the duration of reading bytes from the device.
func (d *Device) Read(p *sim.Proc, bytes int64, sequential bool) {
	d.transfer(p, bytes, d.profile.ReadBW, sequential, false)
}

// Write blocks p for the duration of writing bytes to the device.
func (d *Device) Write(p *sim.Proc, bytes int64, sequential bool) {
	d.transfer(p, bytes, d.profile.WriteBW, sequential, true)
}
