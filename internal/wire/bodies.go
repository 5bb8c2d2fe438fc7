package wire

import (
	"slices"
)

// The message bodies of every protocol in the library, each with its
// binary codec (see codec.go for the field encodings). A body is sent with
// node.Send/Broadcast/Multicast, which Marshal it, and read back by the
// handler with Decode. Bodies that share a shape share a type: the topic,
// not the body, names the message.

// OneB is consensus's 1B (Figure 6): the sender's accepted value for View,
// if any, and its own pending proposal (Mine), if any. HasVal and HasMine
// tell ⊥ from an empty-string value.
type OneB struct {
	View    int64
	AView   int64
	Val     string
	HasVal  bool
	Mine    string
	HasMine bool
}

func (m OneB) AppendWire(b []byte) []byte {
	b = AppendVarint(b, m.View)
	b = AppendVarint(b, m.AView)
	b = AppendString(b, m.Val)
	b = AppendBool(b, m.HasVal)
	b = AppendString(b, m.Mine)
	return AppendBool(b, m.HasMine)
}

func (m *OneB) DecodeWire(b []byte) error {
	r := NewReader(b)
	m.View, m.AView = r.Varint(), r.Varint()
	m.Val, m.HasVal = r.String(), r.Bool()
	m.Mine, m.HasMine = r.String(), r.Bool()
	return r.Done()
}

// Accept is consensus's 2A (the leader's proposal for View) and 2B (a
// process's acceptance of it).
type Accept struct {
	View int64
	Val  string
}

func (m Accept) AppendWire(b []byte) []byte {
	return AppendString(AppendVarint(b, m.View), m.Val)
}

func (m *Accept) DecodeWire(b []byte) error {
	r := NewReader(b)
	m.View, m.Val = r.Varint(), r.String()
	return r.Done()
}

// Decision is consensus's decision announcement.
type Decision struct {
	Val string
}

func (m Decision) AppendWire(b []byte) []byte { return AppendString(b, m.Val) }

func (m *Decision) DecodeWire(b []byte) error {
	r := NewReader(b)
	m.Val = r.String()
	return r.Done()
}

// Prop is one instance's entry in a qaf propagation batch. A full entry
// carries the instance's state at Clock and the state's version V (the
// clock at which it was last updated). A clock-only entry has no State: the
// sender's clock reached Clock while its state stayed at version V.
type Prop struct {
	Name  string
	State []byte
	Clock int64
	V     int64
}

// Props is a qaf propagation batch.
type Props []Prop

func (m Props) AppendWire(b []byte) []byte {
	b = AppendUvarint(b, uint64(len(m)))
	for _, e := range m {
		b = AppendString(b, e.Name)
		b = AppendBytes(b, e.State)
		b = AppendVarint(b, e.Clock)
		b = AppendVarint(b, e.V)
	}
	return b
}

func (m *Props) DecodeWire(b []byte) error {
	r := NewReader(b)
	out := make(Props, r.Count(4))
	for i := range out {
		out[i] = Prop{Name: r.String(), State: r.Bytes(), Clock: r.Varint(), V: r.Varint()}
	}
	*m = out
	return r.Done()
}

// NamedClock pairs a qaf instance with a clock value.
type NamedClock struct {
	Name  string
	Clock int64
}

// Clocks is a qaf ack (the highest clock received per instance) or nudge
// (the cutoff a pending invocation waits on, per instance).
type Clocks []NamedClock

func (m Clocks) AppendWire(b []byte) []byte {
	b = AppendUvarint(b, uint64(len(m)))
	for _, e := range m {
		b = AppendVarint(AppendString(b, e.Name), e.Clock)
	}
	return b
}

func (m *Clocks) DecodeWire(b []byte) error {
	r := NewReader(b)
	out := make(Clocks, r.Count(2))
	for i := range out {
		out[i] = NamedClock{Name: r.String(), Clock: r.Varint()}
	}
	*m = out
	return r.Done()
}

// Int is a body that is one integer, named by its topic: a quorum access
// request or acknowledgment carrying only its invocation's sequence number
// (the generalized CLOCK_REQ, the classical GET_REQ and SET_RESP), a
// checkpoint announcement (its frontier), a lease visibility ask (the slot
// to cover) or its ack (the slot covered).
type Int int64

func (m Int) AppendWire(b []byte) []byte { return AppendVarint(b, int64(m)) }

func (m *Int) DecodeWire(b []byte) error {
	r := NewReader(b)
	*m = Int(r.Varint())
	return r.Done()
}

// SeqClock is a generalized CLOCK_RESP or SET_RESP: the responder's clock
// for the invocation numbered Seq.
type SeqClock struct {
	Seq   int64
	Clock int64
}

func (m SeqClock) AppendWire(b []byte) []byte {
	return AppendVarint(AppendVarint(b, m.Seq), m.Clock)
}

func (m *SeqClock) DecodeWire(b []byte) error {
	r := NewReader(b)
	m.Seq, m.Clock = r.Varint(), r.Varint()
	return r.Done()
}

// SeqData is a quorum access message with an opaque payload: a SET_REQ's
// update descriptor (both implementations) or a classical GET_RESP's state.
type SeqData struct {
	Seq  int64
	Data []byte
}

func (m SeqData) AppendWire(b []byte) []byte {
	return AppendBytes(AppendVarint(b, m.Seq), m.Data)
}

func (m *SeqData) DecodeWire(b []byte) error {
	r := NewReader(b)
	m.Seq, m.Data = r.Varint(), r.Bytes()
	return r.Done()
}

// StateClock is the generalized GET_RESP: the sender's state at Clock,
// pushed unsolicited.
type StateClock struct {
	State []byte
	Clock int64
}

func (m StateClock) AppendWire(b []byte) []byte {
	return AppendVarint(AppendBytes(b, m.State), m.Clock)
}

func (m *StateClock) DecodeWire(b []byte) error {
	r := NewReader(b)
	m.State, m.Clock = r.Bytes(), r.Varint()
	return r.Done()
}

// Fwd carries sub-batches to the leader of View; each entry is a batch
// value holding one sub-batch.
type Fwd struct {
	View int64
	Subs []string
}

func (m Fwd) AppendWire(b []byte) []byte {
	b = AppendUvarint(AppendVarint(b, m.View), uint64(len(m.Subs)))
	for _, s := range m.Subs {
		b = AppendString(b, s)
	}
	return b
}

func (m *Fwd) DecodeWire(b []byte) error {
	r := NewReader(b)
	m.View = r.Varint()
	m.Subs = make([]string, r.Count(1))
	for i := range m.Subs {
		m.Subs[i] = r.String()
	}
	return r.Done()
}

// Idle1B batches the default 1Bs of a log's idle slots for View: each range
// [lo, hi) is a run of slots with no accepted value and no proposal.
type Idle1B struct {
	View   int64
	Ranges [][2]int64
}

func (m Idle1B) AppendWire(b []byte) []byte {
	b = AppendUvarint(AppendVarint(b, m.View), uint64(len(m.Ranges)))
	for _, rg := range m.Ranges {
		b = AppendVarint(AppendVarint(b, rg[0]), rg[1])
	}
	return b
}

func (m *Idle1B) DecodeWire(b []byte) error {
	r := NewReader(b)
	m.View = r.Varint()
	m.Ranges = make([][2]int64, r.Count(2))
	for i := range m.Ranges {
		m.Ranges[i] = [2]int64{r.Varint(), r.Varint()}
	}
	return r.Done()
}

// DecEntry is one decided log slot.
type DecEntry struct {
	Slot int64
	Val  string
}

// Decs carries decided slots to a process still running them.
type Decs []DecEntry

func (m Decs) AppendWire(b []byte) []byte {
	b = AppendUvarint(b, uint64(len(m)))
	for _, d := range m {
		b = AppendString(AppendVarint(b, d.Slot), d.Val)
	}
	return b
}

func (m *Decs) DecodeWire(b []byte) error {
	r := NewReader(b)
	*m = readDecs(&r)
	return r.Done()
}

func readDecs[S string | []byte](r *Reader[S]) Decs {
	out := make(Decs, r.Count(2))
	for i := range out {
		out[i] = DecEntry{Slot: r.Varint(), Val: r.String()}
	}
	return out
}

// OriginSeqs is one origin's entry in a log's table of applied sub-batches:
// every seq up to Low is applied, and so is each seq in Above; Last records
// where the origin's latest applied sub-batches landed, oldest first.
type OriginSeqs struct {
	Low   uint64
	Above []uint64
	Last  []SeqPos
}

// SeqPos is where a sub-batch was first applied: its slot and the index of
// its first command in the slot.
type SeqPos struct {
	Seq   uint64
	Slot  int64
	Index int
}

// Snap is a snapshot-install: the sender's serialized applied state at
// Frontier, its table of applied sub-batches at the same frontier, and its
// decided suffix at and above it.
type Snap struct {
	Frontier int64
	State    string
	Decs     Decs
	Applied  map[uint64]*OriginSeqs
}

func (m Snap) AppendWire(b []byte) []byte {
	b = AppendString(AppendVarint(b, m.Frontier), m.State)
	b = m.Decs.AppendWire(b)
	b = AppendUvarint(b, uint64(len(m.Applied)))
	origins := make([]uint64, 0, len(m.Applied))
	for o := range m.Applied {
		origins = append(origins, o)
	}
	slices.Sort(origins) // one table, one encoding
	for _, o := range origins {
		s := m.Applied[o]
		if s == nil {
			s = &OriginSeqs{}
		}
		b = AppendUvarint(AppendUvarint(b, o), s.Low)
		b = AppendUvarint(b, uint64(len(s.Above)))
		for _, q := range s.Above {
			b = AppendUvarint(b, q)
		}
		b = AppendUvarint(b, uint64(len(s.Last)))
		for _, p := range s.Last {
			b = AppendVarint(AppendVarint(AppendUvarint(b, p.Seq), p.Slot), int64(p.Index))
		}
	}
	return b
}

func (m *Snap) DecodeWire(b []byte) error {
	r := NewReader(b)
	m.Frontier, m.State = r.Varint(), r.String()
	m.Decs = readDecs(&r)
	n := r.Count(4)
	m.Applied = make(map[uint64]*OriginSeqs, n)
	for range n {
		o, s := r.Uvarint(), &OriginSeqs{Low: r.Uvarint()}
		if k := r.Count(1); k > 0 {
			s.Above = make([]uint64, k)
			for i := range s.Above {
				s.Above[i] = r.Uvarint()
			}
		}
		if k := r.Count(3); k > 0 {
			s.Last = make([]SeqPos, k)
			for i := range s.Last {
				s.Last[i] = SeqPos{Seq: r.Uvarint(), Slot: r.Varint(), Index: r.Int()}
			}
		}
		m.Applied[o] = s
	}
	return r.Done()
}
