package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

type body struct {
	A string
	B int
}

func (v body) AppendWire(b []byte) []byte { return AppendVarint(AppendString(b, v.A), int64(v.B)) }

func (v *body) DecodeWire(b []byte) error {
	r := NewReader(b)
	v.A, v.B = r.String(), r.Int()
	return r.Done()
}

func TestRoundTrip(t *testing.T) {
	payload, err := Marshal("t1", body{A: "x", B: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.Topic != "t1" {
		t.Fatalf("topic %q", m.Topic)
	}
	var got body
	if err := Decode(m, &got); err != nil {
		t.Fatal(err)
	}
	if got.A != "x" || got.B != 3 {
		t.Fatalf("body %+v", got)
	}
}

func TestNilBody(t *testing.T) {
	payload, err := Marshal("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != `{"t":"empty"}` {
		t.Fatalf("payload = %q", payload)
	}
	m, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 0 {
		t.Fatalf("body = %q, want empty", m.Body)
	}
	var v body
	if err := Decode(m, &v); err == nil {
		t.Error("missing body decoded")
	}
}

func TestErrors(t *testing.T) {
	for _, topic := range []string{`a"b`, `a\b`, "a\x01b", "τ", "a<b", "a&b"} {
		if _, err := Marshal(topic, body{}); err == nil {
			t.Errorf("topic %q accepted", topic)
		}
	}
	for _, p := range []string{"{nope", `{"t":"x","b":}`, `{"t":"x"} `, `{"b":1,"t":"x"}`, `{"t":"x","c":1}`, ""} {
		if _, err := Unmarshal([]byte(p)); err == nil {
			t.Errorf("garbage envelope %q accepted", p)
		}
	}
	good := body{A: "x", B: -5}.AppendWire(nil)
	for _, b := range [][]byte{
		nil,
		[]byte("{bad"),
		good[:len(good)-1], // truncated
		append(good, 0),    // trailing byte
		{5, 'a'},           // string overruns the body
		{0x80, 0x00, 0},    // length in a longer form than needed
		{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // varint overflows
	} {
		var v body
		if err := Decode(Message{Topic: "t", Body: b}, &v); err == nil {
			t.Errorf("garbage body %q accepted as %+v", b, v)
		}
	}
}

// The primitives round-trip their extremes, and Bool, Count and Int reject
// what they cannot represent.
func TestCodecPrimitives(t *testing.T) {
	var b []byte
	for _, x := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		b = AppendUvarint(b, x)
	}
	for _, x := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		b = AppendVarint(b, x)
	}
	b = AppendBool(AppendBool(b, true), false)
	b = AppendBytes(AppendString(b, "ü\x00"), []byte{0, 1})
	r := NewReader(b)
	for _, x := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		if got := r.Uvarint(); got != x {
			t.Fatalf("uvarint %d read as %d", x, got)
		}
	}
	for _, x := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if got := r.Varint(); got != x {
			t.Fatalf("varint %d read as %d", x, got)
		}
	}
	if !r.Bool() || r.Bool() || r.String() != "ü\x00" || !reflect.DeepEqual(r.Bytes(), []byte{0, 1}) {
		t.Fatal("bool, string or bytes changed")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		in   []byte
		read func(*Reader[[]byte])
	}{
		{"bool 2", []byte{2}, func(r *Reader[[]byte]) { r.Bool() }},
		{"count over input", []byte{2, 0}, func(r *Reader[[]byte]) { r.Count(1) }},
		{"count of 2-byte elements", []byte{2, 0, 0}, func(r *Reader[[]byte]) { r.Count(2) }},
		{"uvarint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader[[]byte]) { r.Uvarint() }},
		{"uvarint unterminated", []byte{0x80}, func(r *Reader[[]byte]) { r.Uvarint() }},
	} {
		r := NewReader(c.in)
		c.read(&r)
		if r.Done() == nil {
			t.Errorf("%s: %v accepted", c.name, c.in)
		}
	}
}

// Property: arbitrary topics and string bodies round-trip exactly when the
// topic is plain, and are rejected otherwise.
func TestQuickRoundTrip(t *testing.T) {
	f := func(topic, a string, b int) bool {
		payload, err := Marshal(topic, body{A: a, B: b})
		if err != nil {
			return !plainTopic(topic)
		}
		m, err := Unmarshal(payload)
		if err != nil || m.Topic != topic {
			return false
		}
		var got body
		if err := Decode(m, &got); err != nil {
			return false
		}
		return got.A == a && got.B == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the slot-carrying consensus bodies (a view's 1B over many
// slots, a slot's 2A/2B and decision, a run of decisions) decode to what
// was encoded: re-encoding the decoded value gives the same bytes.
func TestSlotBodiesQuickRoundTrip(t *testing.T) {
	for _, mk := range []func() codec{
		func() codec { return new(OneB) },
		func() codec { return new(Accept) },
		func() codec { return new(Decision) },
		func() codec { return new(Decs) },
	} {
		typ := reflect.TypeOf(mk()).Elem()
		f := func(seed int64) bool {
			v, ok := quick.Value(typ, rand.New(rand.NewSource(seed)))
			if !ok {
				return false
			}
			in := v.Addr().Interface().(codec).AppendWire(nil)
			got := mk()
			if err := got.DecodeWire(in); err != nil {
				t.Logf("%T: %v", got, err)
				return false
			}
			return bytes.Equal(got.AppendWire(nil), in)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
	}
}

// A checkpoint round-trips, encodes one state one way, and rejects the JSON
// format it replaced, truncation and trailing bytes.
func TestCheckpointRoundTrip(t *testing.T) {
	c := Checkpoint{Frontier: 64, State: map[string]string{"b": "2", "a": "", "": "\x00"}, MetaSlot: 63, Meta: "grant"}
	v, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(v)
	if err != nil || !reflect.DeepEqual(got, c) {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, c)
	}
	// No restored string aliases the checkpoint value: a key that is never
	// overwritten must not keep the install it came in alive.
	lo := uintptr(unsafe.Pointer(unsafe.StringData(v)))
	within := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && p >= lo && p < lo+uintptr(len(v))
	}
	for k, val := range got.State {
		if within(k) || within(val) {
			t.Errorf("restored pair %q=%q aliases the checkpoint value", k, val)
		}
	}
	if within(got.Meta) {
		t.Error("restored meta entry aliases the checkpoint value")
	}
	for i := 0; i < 5; i++ {
		if again, _ := EncodeCheckpoint(c); again != v {
			t.Fatal("one state encoded two ways")
		}
	}
	for _, bad := range []string{"\x02c1{\"f\":64}", v[:len(v)-1], v + "x", "plain"} {
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Errorf("checkpoint %q accepted", bad)
		}
	}
	if _, err := EncodeCheckpoint(Checkpoint{Frontier: -1}); err == nil {
		t.Error("negative frontier accepted")
	}
}

// Batch values round-trip exactly, whatever bytes the commands hold.
func TestBatchRoundTrip(t *testing.T) {
	for _, subs := range [][]SubBatch{
		{{Origin: 0, Seq: 1, Cmds: []string{"one"}}},
		{{Origin: 3, Seq: 9, Cmds: []string{"a", "b", "c"}}, {Origin: 1, Seq: 1 << 33, Cmds: []string{"d"}}},
		{{Origin: 2, Seq: 4, Cmds: []string{`{"id":"p0-1","key":"k","val":"v"}`, "\x01k\x01v\x00", "\x00\x00\x00"}}},
		{{Origin: 1, Seq: 2, Cmds: []string{"", "with \"quotes\" and \\ slashes", "<html>&stuff", "\x01nested"}}},
		{{Origin: 5, Seq: 6}},
	} {
		v := EncodeBatch(subs...)
		if !IsBatch(v) {
			t.Fatalf("encoded batch not recognized: %q", v)
		}
		got, err := DecodeBatch(v)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(subs)) {
			t.Fatalf("decode %v = %v", subs, got)
		}
	}
	if subs, err := DecodeBatch(EncodeBatch()); err != nil || len(subs) != 0 {
		t.Fatalf("empty batch decodes to %v, %v", subs, err)
	}
}

// JoinBatches concatenates the sub-batches of its inputs in order.
func TestJoinBatches(t *testing.T) {
	a := SubBatch{Origin: 1, Seq: 1, Cmds: []string{"x", "y"}}
	b := SubBatch{Origin: 2, Seq: 7, Cmds: []string{"z"}}
	got, err := DecodeBatch(JoinBatches([]string{EncodeBatch(a), EncodeBatch(b)}))
	if err != nil {
		t.Fatal(err)
	}
	if want := []SubBatch{a, b}; !reflect.DeepEqual(got, want) {
		t.Fatalf("joined batch = %v, want %v", got, want)
	}
	if v := EncodeBatch(a); JoinBatches([]string{v}) != v {
		t.Fatal("joining one value changed it")
	}
}

func TestBatchRejections(t *testing.T) {
	if IsBatch(`{"id":"p0-1"}`) || IsBatch("") || IsBatch("\x01") {
		t.Error("non-batch value classified as batch")
	}
	if _, err := DecodeBatch("plain"); err == nil {
		t.Error("plain value decoded as batch")
	}
	for _, v := range []string{
		"\x01b1[\"old\",\"format\"]",           // the JSON-array format this one replaced
		"\x01b2\x01\x01\x01\x05ab",             // binary lengths are not this format
		"\x01b2" + "1:",                        // truncated header
		"\x01b2" + "1:1:2:1:a",                 // two commands announced, one present
		"\x01b2" + "1:1:1:5:ab",                // command overruns the value
		"\x01b2" + "1:1:1:1a",                  // unterminated length
		"\x01b2" + "1::1:1:a",                  // empty number
		"\x01b2" + "18446744073709551616:1:0:", // origin overflows
	} {
		if _, err := DecodeBatch(v); err == nil {
			t.Errorf("corrupt batch %q decoded", v)
		}
	}
	max := EncodeBatch(SubBatch{Origin: math.MaxUint64, Seq: math.MaxUint64})
	if subs, err := DecodeBatch(max); err != nil || subs[0].Origin != math.MaxUint64 || subs[0].Seq != math.MaxUint64 {
		t.Errorf("largest origin and seq decode to %v, %v", subs, err)
	}
}

// A batch value survives a JSON string, which replaces bytes outside UTF-8:
// the framing is ASCII whatever the numbers are.
func TestBatchSurvivesJSON(t *testing.T) {
	v := EncodeBatch(SubBatch{Origin: 200, Seq: 1 << 40, Cmds: []string{strings.Repeat("x", 300), "ü"}})
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back string
	if err := json.Unmarshal(b, &back); err != nil || back != v {
		t.Fatalf("batch value changed through JSON: %q, %v", back, err)
	}
}

// Quick property: any command set survives the batch codec.
func TestBatchQuickRoundTrip(t *testing.T) {
	f := func(origin, seq uint64, a, b, c string) bool {
		got, err := DecodeBatch(EncodeBatch(SubBatch{Origin: origin, Seq: seq, Cmds: []string{a, b, c}}))
		if err != nil || len(got) != 1 || len(got[0].Cmds) != 3 {
			return false
		}
		g := got[0]
		return g.Origin == origin && g.Seq == seq && g.Cmds[0] == a && g.Cmds[1] == b && g.Cmds[2] == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
