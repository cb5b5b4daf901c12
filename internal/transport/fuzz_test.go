package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// readerConn is a receive-only Conn over a byte slice: Recv touches
// nothing but the buffered reader and its own scratch.
func readerConn(data []byte) *Conn {
	return &Conn{r: bufio.NewReader(bytes.NewReader(data))}
}

// frameWriter is a send-only Conn into a buffer whose peer advertised
// every feature, so targets and acks encode with their explicit term.
func frameWriter(buf *bytes.Buffer) *Conn {
	c := &Conn{w: bufio.NewWriter(buf)}
	c.setPeerFeatures(FeatureBatch | FeatureHeartbeat | FeatureRetarget | FeatureElastic | FeatureHier | FeatureTerm)
	return c
}

// encodeMessage re-encodes a decoded message as the single frame its
// sender would write. ok is false for kinds Recv never returns.
func encodeMessage(t *testing.T, m Message) (frame []byte, ok bool) {
	t.Helper()
	var buf bytes.Buffer
	w := frameWriter(&buf)
	var err error
	switch m.Kind {
	case KindData:
		err = w.SendSDO(m.SDO)
	case KindRouted:
		err = w.SendRouted(m.To, m.SDO)
	case KindReplica:
		err = w.SendReplica(m.To, m.Rep, m.SDO)
	case KindFeedback:
		err = w.SendFeedback(m.Feedback)
	case KindHeartbeat:
		err = w.SendHeartbeat(m.Heartbeat)
	case KindTargets:
		err = w.SendTargets(m.Targets)
	case KindReplicaTargets:
		err = w.SendReplicaTargets(m.ReplicaTargets)
	case KindTargetAck:
		err = w.SendTargetAck(m.TargetAck)
	default:
		return nil, false
	}
	if err != nil {
		t.Fatalf("re-encoding a decoded %v frame: %v", m.Kind, err)
	}
	return buf.Bytes(), true
}

// FuzzRecv feeds arbitrary bytes to Conn.Recv. It must never panic, must
// not allocate out of proportion to the bytes it was given (a header may
// claim a 16 MiB body, a count field millions of rows), and every message
// it decodes must round-trip: re-encoding it and decoding that frame
// yields a message that re-encodes to the same bytes. Data, routed and
// replica members must also reproduce their exact wire body.
//
// The seed corpus in testdata/fuzz/FuzzRecv holds one valid frame of
// every kind, a batch with data, routed and replica members, a ragged
// replica-target matrix and a hello. Run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzRecv -fuzztime 30s ./internal/transport/
func FuzzRecv(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := readerConn(data)
		msgs := make([]Message, 0, 16)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			m, err := c.Recv()
			if err != nil {
				break
			}
			msgs = append(msgs, m)
		}
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		for _, m := range msgs {
			first, ok := encodeMessage(t, m)
			if !ok {
				t.Fatalf("Recv returned a message of kind %v", m.Kind)
			}
			again, err := readerConn(first).Recv()
			if err != nil {
				t.Fatalf("decoding a re-encoded %v frame: %v", m.Kind, err)
			}
			if again.Kind != m.Kind {
				t.Fatalf("%v frame decoded back as %v", m.Kind, again.Kind)
			}
			second, _ := encodeMessage(t, again)
			if !bytes.Equal(first, second) {
				t.Fatalf("%v frame does not round-trip:\n first %x\nsecond %x", m.Kind, first, second)
			}
		}
		checkDataBodies(t, data)
	})
}

// checkDataBodies requires every well-formed data, routed and replica
// frame of the input, batch members included, to re-encode to its exact
// wire body: their decoders are strict, so the encoding is canonical.
func checkDataBodies(t *testing.T, data []byte) {
	t.Helper()
	for rest := data; len(rest) >= 5; {
		kind, n := Kind(rest[0]), binary.BigEndian.Uint32(rest[1:5])
		if uint64(n) > uint64(len(rest)-5) {
			return
		}
		body := rest[5 : 5+n]
		rest = rest[5+n:]
		c := readerConn(nil)
		m, _, err := c.decodeFrame(kind, body)
		if err != nil {
			return // Recv stops at the first malformed frame too
		}
		switch kind {
		case KindData, KindRouted, KindReplica:
			checkBody(t, m, body)
		case KindBatch:
			// decodeBatch accepted it, so the member framing is sound.
			mb := body[4:]
			for _, pm := range c.pending {
				mn := binary.BigEndian.Uint32(mb[1:5])
				checkBody(t, pm, mb[5:5+mn])
				mb = mb[5+mn:]
			}
		}
	}
}

func checkBody(t *testing.T, m Message, body []byte) {
	t.Helper()
	frame, _ := encodeMessage(t, m)
	if !bytes.Equal(frame[5:], body) {
		t.Fatalf("%v wire body %x re-encodes as %x", m.Kind, body, frame[5:])
	}
}
