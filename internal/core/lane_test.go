package core

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/insane-mw/insane/internal/datapath"
	"github.com/insane-mw/insane/internal/qos"
)

// TestLaneFIFOTwoSources: two sources of one session share the session's
// TX lane toward the stream's technology; with their emits interleaved on
// that lane, each producer's messages must still be consumed in the order
// it emitted them.
func TestLaneFIFOTwoSources(t *testing.T) {
	w := buildWorld(t, datapath.Caps{}, datapath.Caps{}, nil)
	conn, _ := w.a.Connect()
	st, _ := conn.OpenStream(qos.Options{})
	sink, _ := st.CreateSink(44)
	srcA, err := st.CreateSource(44)
	if err != nil {
		t.Fatal(err)
	}
	srcB, err := st.CreateSource(44)
	if err != nil {
		t.Fatal(err)
	}
	if srcA.lane != srcB.lane {
		t.Fatal("two sources of one session and technology got different lanes")
	}

	emitSeq := func(src *SourceHandle, tag byte, n uint32) {
		b, err := src.GetBuffer(8)
		if err != nil {
			t.Fatal(err)
		}
		b.Payload[0] = tag
		binary.LittleEndian.PutUint32(b.Payload[1:], n)
		if _, err := src.Emit(b, 8); err != nil {
			t.Fatalf("emit %c%d: %v", tag, n, err)
		}
	}

	const perSource = 100
	for i := uint32(0); i < perSource; i++ {
		emitSeq(srcA, 'a', i)
		emitSeq(srcB, 'b', i)
	}

	next := map[byte]uint32{'a': 0, 'b': 0}
	for i := 0; i < 2*perSource; i++ {
		d, err := sink.Consume(2 * time.Second)
		if err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		tag, n := d.Payload[0], binary.LittleEndian.Uint32(d.Payload[1:])
		if n != next[tag] {
			t.Fatalf("producer %c out of order: got %d, want %d", tag, n, next[tag])
		}
		next[tag]++
		sink.Release(d)
	}
}
