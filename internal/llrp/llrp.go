// Package llrp implements a compact binary reader protocol in the spirit
// of EPCglobal LLRP (Low Level Reader Protocol): the framing RFID readers
// use to deliver tag reports to middleware. It is the bottom layer of the
// stack — raw frames decode into tag reports, which adapt into the
// engine's observations.
//
// Frame layout (big-endian), deliberately a simplified LLRP shape:
//
//	byte  0     : version (1)
//	byte  1     : message type
//	bytes 2..5  : total frame length, header included
//	bytes 6..9  : message ID
//	bytes 10..  : payload
//
// RO_ACCESS_REPORT payload: a sequence of tag report entries:
//
//	bytes 0..11 : EPC-96 binary
//	bytes 12..19: timestamp, microseconds since epoch (uint64)
//	bytes 20..21: antenna ID (uint16)
//	bytes 22..23: peak RSSI, dBm ×10, signed (int16)
//
// KEEPALIVE and READER_EVENT_NOTIFICATION carry no payload here.
package llrp

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/epc"
)

// Version is the protocol version this package speaks.
const Version = 1

// MsgType identifies a frame's message type.
type MsgType uint8

// Message types (values follow LLRP's spirit, not its registry).
const (
	MsgROAccessReport MsgType = 0x3D
	MsgKeepalive      MsgType = 0x3E
	MsgReaderEvent    MsgType = 0x3F
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgROAccessReport:
		return "RO_ACCESS_REPORT"
	case MsgKeepalive:
		return "KEEPALIVE"
	case MsgReaderEvent:
		return "READER_EVENT_NOTIFICATION"
	}
	return fmt.Sprintf("msg(0x%02X)", uint8(t))
}

const (
	headerLen    = 10
	tagReportLen = 24
	// MaxFrameLen bounds a frame; a malicious length field cannot force
	// a huge allocation.
	MaxFrameLen = 1 << 20
)

// TagReport is one tag sighting inside an RO_ACCESS_REPORT.
type TagReport struct {
	EPC       epc.Binary
	Timestamp time.Duration // since the reader's epoch
	Antenna   uint16
	PeakRSSI  int16 // dBm × 10
}

// Message is one decoded frame.
type Message struct {
	Type MsgType
	ID   uint32
	Tags []TagReport // for RO_ACCESS_REPORT
}

// Encode renders the message as a binary frame.
func Encode(m Message) ([]byte, error) {
	payload := 0
	if m.Type == MsgROAccessReport {
		payload = len(m.Tags) * tagReportLen
	} else if len(m.Tags) > 0 {
		return nil, fmt.Errorf("llrp: %s carries no tag reports", m.Type)
	}
	total := headerLen + payload
	if total > MaxFrameLen {
		return nil, fmt.Errorf("llrp: frame of %d bytes exceeds limit", total)
	}
	buf := make([]byte, total)
	buf[0] = Version
	buf[1] = byte(m.Type)
	binary.BigEndian.PutUint32(buf[2:6], uint32(total))
	binary.BigEndian.PutUint32(buf[6:10], m.ID)
	off := headerLen
	for _, tr := range m.Tags {
		copy(buf[off:off+12], tr.EPC[:])
		binary.BigEndian.PutUint64(buf[off+12:off+20], uint64(tr.Timestamp/time.Microsecond))
		binary.BigEndian.PutUint16(buf[off+20:off+22], tr.Antenna)
		binary.BigEndian.PutUint16(buf[off+22:off+24], uint16(tr.PeakRSSI))
		off += tagReportLen
	}
	return buf, nil
}

// Decode parses one frame from buf, returning the message and the number
// of bytes consumed. io.ErrShortBuffer signals an incomplete frame (read
// more and retry).
func Decode(buf []byte) (Message, int, error) {
	var m Message
	if len(buf) < headerLen {
		return m, 0, io.ErrShortBuffer
	}
	if buf[0] != Version {
		return m, 0, fmt.Errorf("llrp: unsupported version %d", buf[0])
	}
	total := binary.BigEndian.Uint32(buf[2:6])
	if total < headerLen || total > MaxFrameLen {
		return m, 0, fmt.Errorf("llrp: bad frame length %d", total)
	}
	if len(buf) < int(total) {
		return m, 0, io.ErrShortBuffer
	}
	m.Type = MsgType(buf[1])
	m.ID = binary.BigEndian.Uint32(buf[6:10])
	payload := buf[headerLen:total]
	switch m.Type {
	case MsgROAccessReport:
		if len(payload)%tagReportLen != 0 {
			return m, 0, fmt.Errorf("llrp: report payload of %d bytes is not a whole number of tag reports", len(payload))
		}
		for off := 0; off < len(payload); off += tagReportLen {
			var tr TagReport
			copy(tr.EPC[:], payload[off:off+12])
			tr.Timestamp = time.Duration(binary.BigEndian.Uint64(payload[off+12:off+20])) * time.Microsecond
			tr.Antenna = binary.BigEndian.Uint16(payload[off+20 : off+22])
			tr.PeakRSSI = int16(binary.BigEndian.Uint16(payload[off+22 : off+24]))
			m.Tags = append(m.Tags, tr)
		}
	case MsgKeepalive, MsgReaderEvent:
		if len(payload) != 0 {
			return m, 0, fmt.Errorf("llrp: %s with unexpected payload", m.Type)
		}
	default:
		return m, 0, fmt.Errorf("llrp: unknown message type 0x%02X", buf[1])
	}
	return m, int(total), nil
}

// Reader decodes a frame stream from an io.Reader.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads and decodes the next frame; io.EOF ends the stream cleanly.
func (fr *Reader) Next() (Message, error) {
	for {
		if m, n, err := Decode(fr.buf); err == nil {
			fr.buf = fr.buf[n:]
			return m, nil
		} else if err != io.ErrShortBuffer {
			return Message{}, err
		}
		chunk := make([]byte, 4096)
		n, err := fr.r.Read(chunk)
		if n > 0 {
			fr.buf = append(fr.buf, chunk[:n]...)
			continue
		}
		if err != nil {
			if err == io.EOF && len(fr.buf) == 0 {
				return Message{}, io.EOF
			}
			if err == io.EOF {
				return Message{}, io.ErrUnexpectedEOF
			}
			return Message{}, err
		}
	}
}

// Adapter converts tag reports into engine observations: the reader ID is
// fixed per connection (LLRP connections are per-reader), the object is
// the EPC in hex, and the timestamp carries over to the virtual timeline.
type Adapter struct {
	ReaderID string
	Sink     func(event.Observation) error

	// MinRSSI, when non-zero, drops reports weaker than this (dBm × 10)
	// — edge filtering of marginal reads.
	MinRSSI int16

	// Intern, when set, canonicalizes each observation's reader and
	// object strings before they reach the sink. Every EPC.Hex() call
	// allocates a fresh string; interning at the edge means downstream
	// histories, dedup maps and bindings all share one instance per
	// distinct tag. Safe to share across adapters — the interner is
	// goroutine-safe.
	Intern *event.Interner
}

// HandleMessage feeds every tag report of an RO_ACCESS_REPORT to the
// sink; other message types are ignored (keepalives, reader events).
func (a *Adapter) HandleMessage(m Message) error {
	if m.Type != MsgROAccessReport {
		return nil
	}
	for _, tr := range m.Tags {
		if a.MinRSSI != 0 && tr.PeakRSSI < a.MinRSSI {
			continue
		}
		obs := event.Observation{
			Reader: a.ReaderID,
			Object: tr.EPC.Hex(),
			At:     event.Time(tr.Timestamp),
		}
		if a.Intern != nil {
			obs = a.Intern.CanonObservation(obs)
		}
		if err := a.Sink(obs); err != nil {
			return err
		}
	}
	return nil
}

// Drain decodes every frame from r through the adapter until EOF.
func (a *Adapter) Drain(r io.Reader) error {
	fr := NewReader(r)
	for {
		m, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := a.HandleMessage(m); err != nil {
			return err
		}
	}
}
