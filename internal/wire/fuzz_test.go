package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// kvCmd is a KV set command as the replicated KV encodes it: key, value
// and an empty meta field, each length-prefixed.
func kvCmd(key, val string) string {
	return string(AppendString(AppendString(AppendString(nil, key), val), ""))
}

// regState is a register state as the register encodes it: value, version
// number and writer.
func regState(val string, num uint64, proc int64) []byte {
	return AppendVarint(AppendUvarint(AppendString(nil, val), num), proc)
}

// batchValue is a group-committed batch of n KV set commands, one
// sub-batch per origin process, the value a write-path 2B or decision
// carries.
func batchValue(n int) string {
	subs := make([]SubBatch, 4)
	for i := 0; i < n; i++ {
		o := i % 4
		subs[o].Origin, subs[o].Seq = uint64(o), uint64(100+o)
		subs[o].Cmds = append(subs[o].Cmds, kvCmd(fmt.Sprintf("key-%04d", i*7%1024), fmt.Sprintf("value-%d", i)))
	}
	return EncodeBatch(subs...)
}

// propBody is a batched qaf propagation of n register states.
func propBody(n int) Props {
	out := make(Props, n)
	for i := range out {
		out[i] = Prop{
			Name:  fmt.Sprintf("reg%d", i),
			State: regState(fmt.Sprintf("payload-%d", i), uint64(12345+i), int64(i%4)),
			Clock: int64(1000 + i),
			V:     int64(990 + i),
		}
	}
	return out
}

// rawBody sends its bytes as a body, as they are.
type rawBody []byte

func (r rawBody) AppendWire(b []byte) []byte { return append(b, r...) }

// codec is a body type: what a handler decodes into is what is sent.
type codec interface {
	Encoder
	Decoder
}

// bodyTypes returns a fresh value of every body type.
var bodyTypes = []func() codec{
	func() codec { return new(OneB) },
	func() codec { return new(Accept) },
	func() codec { return new(Decision) },
	func() codec { return new(Props) },
	func() codec { return new(Clocks) },
	func() codec { return new(Int) },
	func() codec { return new(SeqClock) },
	func() codec { return new(SeqData) },
	func() codec { return new(StateClock) },
	func() codec { return new(Fwd) },
	func() codec { return new(Decs) },
	func() codec { return new(Snap) },
}

// envelopeShape is one topic/body pair as the protocol packages send it.
type envelopeShape struct {
	name, topic string
	body        codec
}

// envelopeShapes returns every topic and body type in the tree, with the
// values the protocols send.
func envelopeShapes() []envelopeShape {
	batch := batchValue(64)
	ckpt, err := EncodeCheckpoint(Checkpoint{Frontier: 64, State: map[string]string{"a": "1"}})
	if err != nil {
		panic(err)
	}
	return []envelopeShape{
		{"1b", "kv/1b", &OneB{View: 9,
			Slots: []Slot1B{{Slot: 17, AView: 8, Val: batch, HasVal: true, Mine: kvCmd("k", "v"), HasMine: true}, {Slot: 19, Mine: kvCmd("k", "w"), HasMine: true}},
			Idle:  [][2]int64{{0, 17}, {18, 19}, {20, math.MaxInt64}}}},
		{"1b-forward", "kv/1b", &OneB{View: 9, Slots: []Slot1B{{Slot: 4096, Mine: batch, HasMine: true}}}},
		{"1b-default", "kv/1b", &OneB{View: 9, Idle: [][2]int64{{0, math.MaxInt64}}}},
		{"2a", "kv/2a", &Accept{Slot: 17, View: 9, Val: batch}},
		{"2b-batch64", "kv/2b", &Accept{Slot: 17, View: 9, Val: batch}},
		{"dec", "kv/dec", &Decision{Slot: 17, Val: batch}},
		{"decs", "kv/decs", &Decs{{Slot: 3, Val: batch}, {Slot: 4, Val: "x"}}},
		{"ckpt", "kv/ckpt", ptr(Int(4096))},
		{"snap", "kv/snap", &Snap{Frontier: 64, State: ckpt, Decs: Decs{{Slot: 64, Val: batch}},
			Applied: map[uint64]*OriginSeqs{2: {Low: 40, Above: []uint64{42}, Last: []SeqPos{{Seq: 42, Slot: 63, Index: 5}}}, 0: {Low: 7}}}},
		{"fwd", "kv/fwd", &Fwd{View: 9, Subs: []string{EncodeBatch(SubBatch{Origin: 1, Seq: 7, Cmds: []string{kvCmd("k", "v")}})}}},
		{"clock-req", "reg7/clock_req", ptr(Int(42))},
		{"clock-resp", "reg7/clock_resp", &SeqClock{Seq: 42, Clock: 99}},
		{"get-resp", "reg7/get_resp", &StateClock{State: regState("v", 3, 1), Clock: 99}},
		{"set-req", "reg7/set_req", &SeqData{Seq: 43, Data: regState("w", 4, 1)}},
		{"set-resp", "reg7/set_resp", &SeqClock{Seq: 43, Clock: 100}},
		{"qaf-prop", "qaf/prop", ptr(propBody(8))},
		{"qaf-prop-clocks", "qaf/prop", &Props{{Name: "reg0", Clock: 1 << 50, V: 3}, {Name: "reg1", Clock: 1 << 50, V: -1}}},
		{"qaf-ack", "qaf/ack", &Clocks{{Name: "reg0", Clock: 7}, {Name: "reg1", Clock: 8}}},
		{"qaf-nudge", "qaf/nudge", &Clocks{{Name: "reg0", Clock: 1 << 50}}},
		{"lease-ask", "lease/ask", ptr(Int(77))},
		{"empty-lists", "t", &Props{}},
		{"empty-topic", "", ptr(Int(1))},
	}
}

func ptr[T any](v T) *T { return &v }

// TestUnmarshalMatchesJSONOnMarshalOutput: on everything Marshal produces,
// Unmarshal returns the topic and exactly the body bytes the body's codec
// wrote, the body decodes to the value sent, and the header up to the
// topic's closing quote is the JSON object encoding/json reads the same
// topic from — the part of the envelope a packet tap parses.
func TestUnmarshalMatchesJSONOnMarshalOutput(t *testing.T) {
	for _, s := range envelopeShapes() {
		for _, b := range []Encoder{s.body, nil} {
			p, err := Marshal(s.topic, b)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			got, err := Unmarshal(p)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			var want []byte
			if b != nil {
				want = b.AppendWire(nil)
			}
			if got.Topic != s.topic || !bytes.Equal(got.Body, want) {
				t.Fatalf("%s: got (%q, %x), want (%q, %x)", s.name, got.Topic, got.Body, s.topic, want)
			}
			header := append(p[:len(topicOpen)+len(s.topic)+1:len(topicOpen)+len(s.topic)+1], '}')
			if topic, err := jsonTopic(header); err != nil || topic != s.topic {
				t.Fatalf("%s: header %q reads as topic %q, %v", s.name, header, topic, err)
			}
			if b == nil {
				continue
			}
			v := reflect.New(reflect.TypeOf(s.body).Elem()).Interface().(codec)
			if err := Decode(got, v); err != nil || !reflect.DeepEqual(v, s.body) {
				t.Fatalf("%s: decoded %+v, %v; want %+v", s.name, v, err, s.body)
			}
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

// FuzzUnmarshal checks that Unmarshal is the exact inverse of Marshal and
// accepts nothing else: whenever it returns a topic and a body, marshaling
// them back reproduces the payload byte for byte, and the header reads as
// the same topic under encoding/json.
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
		`{"t":"x\u0041","b":1}`,
		`{"b":1,"t":"x"}`,
		`{"T":"x","b":1}`,
		`{nope`,
		"{\"t\":\"x\",\"b\":\x00\xff}}",
		"{\"t\":\"x\",\"b\":\"}",
	} {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := Unmarshal(p)
		if err != nil {
			return
		}
		var b Encoder
		if len(m.Body) > 0 {
			b = rawBody(m.Body)
		}
		again, err := Marshal(m.Topic, b)
		if err != nil || !bytes.Equal(again, p) {
			t.Fatalf("Unmarshal(%q) = (%q, %q), which marshals to %q, %v", p, m.Topic, m.Body, again, err)
		}
		header := append([]byte(topicOpen+m.Topic), '"', '}')
		if topic, err := jsonTopic(header); err != nil || topic != m.Topic {
			t.Fatalf("%q: header %q reads as topic %q, %v", p, header, topic, err)
		}
	})
}

// FuzzDecodeBodies feeds arbitrary bytes to every body type's decoder and
// to the checkpoint decoder. None panics; none makes more than two list,
// map or byte elements per input byte, accepted or not (a count is checked
// against the input before anything is made); and whatever one
// accepts re-encodes, no longer than the input, to bytes that decode to the
// same value.
func FuzzDecodeBodies(f *testing.F) {
	for _, s := range envelopeShapes() {
		f.Add(s.body.AppendWire(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0x7f})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, mk := range bodyTypes {
			v := mk()
			err := v.DecodeWire(in)
			if n := elements(reflect.ValueOf(v)); n > 2*len(in) {
				t.Fatalf("%T: decoding %d bytes made %d elements", v, len(in), n)
			}
			if err != nil {
				continue
			}
			out := v.AppendWire(nil)
			if len(out) > len(in) {
				t.Fatalf("%T: %x re-encodes longer, to %x", v, in, out)
			}
			w := mk()
			if err := w.DecodeWire(out); err != nil || !reflect.DeepEqual(v, w) {
				t.Fatalf("%T: %x decodes to %+v, re-encoded %x to %+v, %v", v, in, v, out, w, err)
			}
		}
		c, err := DecodeCheckpoint(checkpointMagic + string(in))
		if err != nil {
			return
		}
		out, err := EncodeCheckpoint(c)
		if err != nil {
			t.Fatalf("checkpoint %x decodes to %+v, which does not encode: %v", in, c, err)
		}
		if again, err := DecodeCheckpoint(out); err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("checkpoint %x decodes to %+v, re-encoded to %+v, %v", in, c, again, err)
		}
	})
}

// jsonTopic reads the topic out of an envelope header with encoding/json.
func jsonTopic(header []byte) (string, error) {
	var ref struct {
		T string `json:"t"`
	}
	err := json.Unmarshal(header, &ref)
	return ref.T, err
}

// elements counts the slice, map and byte-slice elements a decoded value
// holds, everywhere in it: what a decoder sized by counts it read.
func elements(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return elements(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += elements(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := v.Len()
		for i := 0; i < v.Len(); i++ {
			n += elements(v.Index(i))
		}
		return n
	case reflect.Map:
		n := v.Len()
		for it := v.MapRange(); it.Next(); {
			n += elements(it.Value())
		}
		return n
	}
	return 0
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
