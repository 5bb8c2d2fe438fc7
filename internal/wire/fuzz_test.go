package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// Mirrors of the message bodies the protocol packages send (they import
// wire, so the tests cannot import them): consensus 1B/2A/2B/dec, the
// replicated log's idle-1B ranges, decs catch-up, checkpoint announcement,
// snapshot-install and sub-batch forwards, the quorum access functions' requests, responses
// and batched propagation, and the lease manager's ask/ack.
type (
	shape1B struct {
		View    int64  `json:"view"`
		AView   int64  `json:"aview"`
		Val     string `json:"val"`
		HasVal  bool   `json:"has_val"`
		Mine    string `json:"mine,omitempty"`
		HasMine bool   `json:"has_mine,omitempty"`
	}
	shape2B struct {
		View int64  `json:"view"`
		Val  string `json:"val"`
	}
	shapeDec struct {
		Val string `json:"val"`
	}
	shapeIdle1B struct {
		View   int64      `json:"view"`
		Ranges [][2]int64 `json:"ranges"`
	}
	shapeDecEntry struct {
		Slot int64  `json:"s"`
		Val  string `json:"v"`
	}
	shapeCkpt struct {
		Frontier int64 `json:"f"`
	}
	shapeSeqPos struct {
		Seq   uint64 `json:"q"`
		Slot  int64  `json:"s"`
		Index int    `json:"i"`
	}
	shapeOriginSeqs struct {
		Low   uint64        `json:"l"`
		Above []uint64      `json:"a,omitempty"`
		Last  []shapeSeqPos `json:"p,omitempty"`
	}
	shapeSnap struct {
		Frontier int64                       `json:"f"`
		State    string                      `json:"s,omitempty"`
		Decs     []shapeDecEntry             `json:"d,omitempty"`
		Applied  map[uint64]*shapeOriginSeqs `json:"a,omitempty"`
	}
	shapeFwd struct {
		View int64    `json:"v"`
		Subs []string `json:"s"`
	}
	shapeClockResp struct {
		Seq   int64 `json:"seq"`
		Clock int64 `json:"clock"`
	}
	shapeGetResp struct {
		State []byte `json:"state"`
		Clock int64  `json:"clock"`
	}
	shapeSetReq struct {
		Seq    int64  `json:"seq"`
		Update []byte `json:"update"`
	}
	shapeProp struct {
		Name  string `json:"n"`
		State []byte `json:"s"`
		Clock int64  `json:"c"`
	}
	shapeAck struct {
		Name  string `json:"n"`
		Clock int64  `json:"c"`
	}
	shapeAsk struct {
		Slot int64 `json:"s"`
	}
)

// batchValue is a group-committed batch of n KV set commands, one
// sub-batch per origin process, the value a write-path 2B or decision
// carries.
func batchValue(n int) string {
	subs := make([]SubBatch, 4)
	for i := 0; i < n; i++ {
		o := i % 4
		subs[o].Origin, subs[o].Seq = uint64(o), uint64(100+o)
		subs[o].Cmds = append(subs[o].Cmds, fmt.Sprintf(`{"id":"p%d-%d","key":"key-%04d","val":"value-%d"}`, o, 1000+i, i*7%1024, i))
	}
	return EncodeBatch(subs...)
}

// propBody is a batched qaf propagation of n register states.
func propBody(n int) []shapeProp {
	out := make([]shapeProp, n)
	for i := range out {
		out[i] = shapeProp{
			Name:  fmt.Sprintf("reg%d", i),
			State: []byte(fmt.Sprintf(`{"val":"payload-%d","ver":{"num":%d,"proc":%d}}`, i, 12345+i, i%4)),
			Clock: int64(1000 + i),
		}
	}
	return out
}

// envelopeShape is one topic/body pair as the protocol packages send it.
type envelopeShape struct {
	name, topic string
	body        any
}

// envelopeShapes returns every topic/body shape in the tree, plus the
// envelope corner cases Marshal handles (no body, a null body, a topic
// that needs escaping).
func envelopeShapes() []envelopeShape {
	batch := batchValue(64)
	return []envelopeShape{
		{"1b", "kv/slot17/1b", shape1B{View: 9, AView: 8, Val: batch, HasVal: true, Mine: `{"id":"p1-3","key":"k","val":"v"}`, HasMine: true}},
		{"2a", "kv/slot17/2a", shape2B{View: 9, Val: batch}},
		{"2b-batch64", "kv/slot17/2b", shape2B{View: 9, Val: batch}},
		{"dec", "kv/slot17/dec", shapeDec{Val: batch}},
		{"idle1b", "kv/idle1b", shapeIdle1B{View: 9, Ranges: [][2]int64{{0, 17}, {18, 128}}}},
		{"decs", "kv/decs", []shapeDecEntry{{Slot: 3, Val: batch}, {Slot: 4, Val: "x"}}},
		{"ckpt", "kv/ckpt", shapeCkpt{Frontier: 4096}},
		{"snap", "kv/snap", shapeSnap{Frontier: 64, State: "\x02c1{\"f\":64,\"s\":{\"a\":\"1\"}}", Decs: []shapeDecEntry{{Slot: 64, Val: batch}},
			Applied: map[uint64]*shapeOriginSeqs{2: {Low: 40, Above: []uint64{42}, Last: []shapeSeqPos{{Seq: 42, Slot: 63, Index: 5}}}}}},
		{"fwd", "kv/fwd", shapeFwd{View: 9, Subs: []string{EncodeBatch(SubBatch{Origin: 1, Seq: 7, Cmds: []string{`{"id":"p1-3","key":"k","val":"v"}`}})}}},
		{"clock-req", "reg7/clock_req", map[string]int64{"seq": 42}},
		{"clock-resp", "reg7/clock_resp", shapeClockResp{Seq: 42, Clock: 99}},
		{"get-resp", "reg7/get_resp", shapeGetResp{State: []byte(`{"val":"v","ver":{"num":3,"proc":1}}`), Clock: 99}},
		{"set-req", "reg7/set_req", shapeSetReq{Seq: 43, Update: []byte(`{"val":"w","ver":{"num":4,"proc":1}}`)}},
		{"qaf-prop", "qaf/prop", propBody(8)},
		{"qaf-ack", "qaf/ack", []shapeAck{{Name: "reg0", Clock: 7}, {Name: "reg1", Clock: 8}}},
		{"qaf-ping", "qaf/ping", nil},
		{"lease-ask", "lease/ask", shapeAsk{Slot: 77}},
		{"null-body", "t", json.RawMessage("null")},
		{"escaped-topic", `needs "escaping"\`, "plain"},
		{"html-topic", "a<b>&c", 1},
		{"unicode-topic", "τοπίκ", []string{"<script>", "ü"}},
		{"empty-topic", "", shapeCkpt{Frontier: 1}},
	}
}

// TestUnmarshalMatchesJSONOnMarshalOutput pins the hand-split envelope to
// encoding/json, byte for byte, on everything Marshal produces.
func TestUnmarshalMatchesJSONOnMarshalOutput(t *testing.T) {
	for _, s := range envelopeShapes() {
		p, err := Marshal(s.topic, s.body)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got, err := Unmarshal(p)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var want Message
		if err := json.Unmarshal(p, &want); err != nil {
			t.Fatalf("%s: reference: %v", s.name, err)
		}
		if got.Topic != want.Topic || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("%s: got (%q, %s), want (%q, %s)", s.name, got.Topic, got.Body, want.Topic, want.Body)
		}
		_, fast := splitEnvelope(p)
		if plain := plainTopic(s.topic); fast != plain {
			t.Fatalf("%s: fast path taken = %v for plain topic = %v", s.name, fast, plain)
		}
	}
}

// TestUnmarshalBodyDoesNotGrowIntoPayload checks the aliased body is
// capacity-clipped: appending to it must not overwrite the payload.
func TestUnmarshalBodyDoesNotGrowIntoPayload(t *testing.T) {
	p := []byte(`{"t":"x","b":[1]}`)
	m, err := Unmarshal(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(m.Body, 'X')
	if string(p) != `{"t":"x","b":[1]}` {
		t.Fatalf("payload overwritten: %s", p)
	}
}

// FuzzUnmarshal checks the hand-split envelope against encoding/json:
// whenever the fast path returns a topic and a body that is valid JSON,
// json.Unmarshal accepts the payload with the same topic and an equal body
// (compared compacted). A body that is not valid JSON carries no claim —
// the Decode that reads it rejects it.
func FuzzUnmarshal(f *testing.F) {
	for _, s := range envelopeShapes() {
		p, err := Marshal(s.topic, s.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	for _, p := range []string{
		`{"t":"x"}`,
		`{"t":"x","b":1,"c":2}`,
		`{"t":"x","b":1,"b":2}`,
		`{"t":"x","b":{"a":1},"t":"y"}`,
		`{"t":"x","t":"y"}`,
		`{"t":"x","b": [1, 2] }`,
		`{"t":"x"} `,
		`{"t":"x","b":}`,
		`{"t":"x\"y","b":1}`,
		`{"t":"xA","b":1}`,
		`{"b":1,"t":"x"}`,
		`{"T":"x","b":1}`,
		`{nope`,
	} {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		m, ok := splitEnvelope(p)
		got, err := Unmarshal(p)
		if ok && (err != nil || got.Topic != m.Topic || !bytes.Equal(got.Body, m.Body)) {
			t.Fatalf("Unmarshal(%q) = (%q, %q, %v), split (%q, %q)", p, got.Topic, got.Body, err, m.Topic, m.Body)
		}
		if !ok || (len(m.Body) > 0 && !json.Valid(m.Body)) {
			return
		}
		var ref Message
		if err := json.Unmarshal(p, &ref); err != nil {
			t.Fatalf("fast path accepted %q, json rejects it: %v", p, err)
		}
		if ref.Topic != m.Topic {
			t.Fatalf("%q: topic %q, json %q", p, m.Topic, ref.Topic)
		}
		if len(m.Body) == 0 {
			if len(ref.Body) != 0 {
				t.Fatalf("%q: no body, json body %q", p, ref.Body)
			}
			return
		}
		if compact(t, m.Body) != compact(t, ref.Body) {
			t.Fatalf("%q: body %q, json %q", p, m.Body, ref.Body)
		}
	})
}

func compact(t *testing.T, b []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compact %q: %v", b, err)
	}
	return buf.String()
}

// FuzzDecodeBatch feeds arbitrary bytes to the batch value decoder: it never
// panics, the commands it returns fit inside the input, and whatever it
// accepts re-encodes to a value that decodes to the same sub-batches.
// Values produced by EncodeBatch round-trip exactly.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(batchValue(8))
	f.Add(batchValue(1))
	f.Add(EncodeBatch())
	f.Add(EncodeBatch(SubBatch{Origin: 1 << 40, Seq: 1<<64 - 1, Cmds: []string{"", "\x01b2", "x"}}))
	f.Add(JoinBatches([]string{batchValue(2), batchValue(3)}))
	f.Add("\x01b1[\"old\",\"format\"]")
	f.Add("\x01b2" + "1:2:5:1:a")
	f.Add("\x01b2" + "99999999999999999999:1:0:")
	f.Add("plain")
	f.Fuzz(func(t *testing.T, v string) {
		subs, err := DecodeBatch(v)
		if err != nil {
			return
		}
		total := len(batchMagic)
		for _, s := range subs {
			total += 6 // every header number takes a digit and its ':'
			for _, c := range s.Cmds {
				total += 2 + len(c)
			}
		}
		if total > len(v) {
			t.Fatalf("decoded %d bytes of sub-batches out of a %d-byte value", total, len(v))
		}
		again, err := DecodeBatch(EncodeBatch(subs...))
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !reflect.DeepEqual(normalize(again), normalize(subs)) {
			t.Fatalf("re-encoded batch decodes to %v, want %v", again, subs)
		}
		if w := EncodeBatch(subs...); len(w) > len(v) {
			t.Fatalf("canonical encoding %d bytes longer than the %d-byte input", len(w), len(v))
		}
	})
}

// normalize maps empty command lists to nil so decoded and re-decoded
// sub-batches compare equal.
func normalize(subs []SubBatch) []SubBatch {
	for i := range subs {
		if len(subs[i].Cmds) == 0 {
			subs[i].Cmds = nil
		}
	}
	return subs
}
