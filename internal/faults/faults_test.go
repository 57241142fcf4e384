package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// drainConn returns a net.Pipe endpoint whose peer is continuously
// drained, so writes never block.
func drainConn(t *testing.T) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go func() { _, _ = io.Copy(io.Discard, b) }()
	return a
}

// writeUntilReset writes fixed frames until the injected reset, returning
// the number of whole frames that got through.
func writeUntilReset(t *testing.T, in *Injector) (frames int, err error) {
	t.Helper()
	c := in.Conn(drainConn(t))
	for i := 0; i < 10000; i++ {
		if _, err := c.Write([]byte("frame-payload\n")); err != nil {
			return i, err
		}
	}
	t.Fatal("no reset within 10000 writes")
	return 0, nil
}

func TestConnResetIsDeterministic(t *testing.T) {
	mk := func() *Injector { return New(11, WithConnReset(20, 10)) }
	var first []int
	for run := 0; run < 2; run++ {
		in := mk()
		var got []int
		for conn := 0; conn < 5; conn++ {
			n, err := writeUntilReset(t, in)
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("reset error does not wrap ErrInjected: %v", err)
			}
			got = append(got, n)
		}
		if run == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("same seed, different schedule: %v vs %v", first, got)
			}
		}
	}
}

func TestConnWithoutResetPassesThrough(t *testing.T) {
	in := New(1) // no options: no faults
	c := in.Conn(drainConn(t))
	for i := 0; i < 1000; i++ {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatalf("fault injected with empty config: %v", err)
		}
	}
	if in.Resets() != 0 {
		t.Fatalf("spurious resets: %d", in.Resets())
	}
}

func TestPartialWriteTearsFrame(t *testing.T) {
	// partialProb 1: the reset write delivers a strict prefix.
	in := New(3, WithConnReset(5, 0), WithPartialWrites(1))
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	received := make(chan []byte, 1)
	go func() {
		buf, _ := io.ReadAll(b)
		received <- buf
	}()
	c := in.Conn(a)
	frame := []byte("0123456789")
	var n int
	var err error
	writes := 0
	for {
		n, err = c.Write(frame)
		writes++
		if err != nil {
			break
		}
	}
	if writes != 5 {
		t.Fatalf("reset after %d writes, want 5", writes)
	}
	if !errors.Is(err, ErrInjected) || n <= 0 || n >= len(frame) {
		t.Fatalf("expected a torn frame: n=%d err=%v", n, err)
	}
	got := <-received
	want := 4*len(frame) + n
	if len(got) != want {
		t.Fatalf("peer saw %d bytes, want %d (4 whole frames + %d-byte tear)", len(got), want, n)
	}
}

func TestCorruptAlwaysDiffers(t *testing.T) {
	in := New(7)
	frame := []byte{1, 0x3D, 0, 0, 0, 10, 0, 0, 0, 1}
	for i := 0; i < 200; i++ {
		c := in.Corrupt(frame)
		if bytes.Equal(c, frame) {
			t.Fatalf("corruption %d returned the original frame", i)
		}
	}
	// Determinism across injectors.
	a := New(13).Corruptions(frame, 20)
	b := New(13).Corruptions(frame, 20)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed, different corruption at %d: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestWriteDelayStaysBounded(t *testing.T) {
	in := New(2, WithWriteDelay(1, 5*time.Millisecond))
	c := in.Conn(drainConn(t))
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("delays unbounded: %v", elapsed)
	}
}
