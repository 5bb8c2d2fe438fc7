// Package wire defines the encoding of every protocol message: an envelope
// naming the topic, which selects the handler at the destination, around a
// binary body.
//
// The envelope is fixed: Marshal emits exactly {"t":"<topic>","b":<body>},
// or {"t":"<topic>"} without a body. A topic is printable ASCII with no
// character JSON would escape, so the header up to the topic's closing
// quote is plain JSON and a packet tap can classify messages by it; the
// body after it is raw bytes, ended by the payload's final '}'. Unmarshal
// is the exact inverse of Marshal on that shape and rejects everything
// else.
//
// A body is one of the types in bodies.go, encoded with the primitives in
// codec.go: fields in order, no tags, varints and length-prefixed bytes.
// The KV command, lease grant, register state and checkpoint formats are
// built from the same primitives. Decoding never reflects, reads nothing
// past its input, allocates in proportion to the input's length, and
// rejects trailing bytes. Marshal and Decode take the codec interfaces
// (Encoder, Decoder), so a body without a codec does not compile.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Message is the on-the-wire envelope.
type Message struct {
	Topic string
	Body  []byte
}

// Encoder is a message body: it appends its encoding to b.
type Encoder interface {
	AppendWire(b []byte) []byte
}

// Decoder is a message body to decode into: it reads exactly one encoded
// body out of b.
type Decoder interface {
	DecodeWire(b []byte) error
}

// bufPool holds Marshal's scratch buffers: one reusable buffer per encode
// instead of a growing fresh one.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooled caps the buffers kept in bufPool, so one large message (a
// snapshot-install) does not pin its buffer for the process's lifetime.
const maxPooled = 64 << 10

// plainTopic reports whether the topic can be emitted between bare quotes:
// printable ASCII with nothing the JSON string grammar (or the encoding/json
// HTML-safe convention) escapes. Every topic in the library qualifies, and
// Marshal rejects any other.
func plainTopic[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// The fixed envelope shape.
const (
	topicOpen = `{"t":"`
	bodyKey   = `,"b":`
)

// Marshal encodes a topic and body into a payload, in one pass over a
// pooled buffer. A nil body sends the topic alone. The result owns its
// bytes: transports retain payloads past this call (simulated delays,
// broadcast fan-out).
func Marshal(topic string, body Encoder) ([]byte, error) {
	if !plainTopic(topic) {
		return nil, fmt.Errorf("marshal: topic %q is not plain ASCII", topic)
	}
	bp := bufPool.Get().(*[]byte)
	b := append((*bp)[:0], topicOpen...)
	b = append(append(b, topic...), '"')
	if body != nil {
		b = body.AppendWire(append(b, bodyKey...))
	}
	b = append(b, '}')
	out := slices.Clone(b)
	if cap(b) <= maxPooled {
		*bp = b
		bufPool.Put(bp)
	}
	return out, nil
}

// batchMagic prefixes a group-committed batch travelling as one opaque
// consensus value (see smr's group commit; every decided log value is one).
// The version byte distinguishes this length-prefixed format from the
// JSON-array batches of "\x01b1": a value in the old format is rejected,
// never misread.
const batchMagic = "\x01b2"

// SubBatch is one origin's cut of commands inside a batch value: Origin
// identifies the process that accepted the commands and Seq numbers its
// cuts, so a sub-batch committed twice can be recognised and skipped.
type SubBatch struct {
	Origin uint64
	Seq    uint64
	Cmds   []string
}

// EncodeBatch packs sub-batches into one batch value: batchMagic, then per
// sub-batch its origin, seq and command count, then each command as its
// length and its bytes. Every number is decimal and ends with ':', so the
// framing is plain ASCII; the commands are copied in as they are, binary or
// not. Order is preserved.
func EncodeBatch(subs ...SubBatch) string {
	const maxNum = 21 // 20 digits of a uint64 plus ':'
	n := len(batchMagic)
	for _, s := range subs {
		n += 3 * maxNum
		for _, c := range s.Cmds {
			n += maxNum + len(c)
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(batchMagic)
	var tmp [maxNum]byte
	put := func(x uint64) { b.Write(append(strconv.AppendUint(tmp[:0], x, 10), ':')) }
	for _, s := range subs {
		put(s.Origin)
		put(s.Seq)
		put(uint64(len(s.Cmds)))
		for _, c := range s.Cmds {
			put(uint64(len(c)))
			b.WriteString(c)
		}
	}
	return b.String()
}

// JoinBatches concatenates valid batch values into one whose sub-batches
// are theirs, in order. The format makes this a byte concatenation: no
// command is decoded or copied twice.
func JoinBatches(vals []string) string {
	if len(vals) == 1 {
		return vals[0]
	}
	n := len(batchMagic)
	for _, v := range vals {
		n += len(v) - len(batchMagic)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(batchMagic)
	for _, v := range vals {
		b.WriteString(v[len(batchMagic):])
	}
	return b.String()
}

// IsBatch reports whether v opens with the marker of EncodeBatch's format.
func IsBatch(v string) bool {
	return len(v) >= len(batchMagic) && v[:len(batchMagic)] == batchMagic
}

// DecodeBatch unpacks a batch value into its sub-batches. The commands are
// substrings of v; nothing reaches past its end.
func DecodeBatch(v string) ([]SubBatch, error) {
	if !IsBatch(v) {
		return nil, fmt.Errorf("not a batch value (missing marker)")
	}
	var subs []SubBatch
	for p := v[len(batchMagic):]; len(p) > 0; {
		var s SubBatch
		var n uint64
		var ok bool
		if s.Origin, p, ok = number(p); !ok {
			return nil, fmt.Errorf("batch sub-batch %d: bad origin", len(subs))
		}
		if s.Seq, p, ok = number(p); !ok {
			return nil, fmt.Errorf("batch sub-batch %d: bad seq", len(subs))
		}
		// Every command takes at least two bytes of length, which bounds
		// the allocation by the input size.
		if n, p, ok = number(p); !ok || n > uint64(len(p))/2 {
			return nil, fmt.Errorf("batch sub-batch %d: bad command count", len(subs))
		}
		s.Cmds = make([]string, n)
		for i := range s.Cmds {
			var l uint64
			if l, p, ok = number(p); !ok || l > uint64(len(p)) {
				return nil, fmt.Errorf("batch sub-batch %d: command %d overruns the value", len(subs), i)
			}
			s.Cmds[i], p = p[:l], p[l:]
		}
		subs = append(subs, s)
	}
	return subs, nil
}

// number reads one ':'-terminated decimal off the front of p, rejecting an
// empty, unterminated or overflowing one.
func number(p string) (uint64, string, bool) {
	var x uint64
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c == ':' && i > 0 {
			return x, p[i+1:], true
		}
		d := uint64(c - '0')
		if c < '0' || c > '9' || x > (math.MaxUint64-d)/10 {
			return 0, p, false
		}
		x = x*10 + d
	}
	return 0, p, false
}

// checkpointMagic prefixes a serialized KV checkpoint travelling as one
// opaque string (see smr's log compaction). Its version byte distinguishes
// this binary format from the JSON object of "\x02c1": a checkpoint in the
// old format is rejected, never misread.
const checkpointMagic = "\x02c2"

// Checkpoint is the serialized applied state of a replicated KV at a log
// frontier: every slot below Frontier is folded into State. MetaSlot/Meta
// carry the latest meta entry at or below the frontier (lease grants travel
// as meta entries; replaying the newest one on restore re-establishes the
// writer gate an installed process would otherwise miss).
type Checkpoint struct {
	Frontier int64
	State    map[string]string
	MetaSlot int64
	Meta     string
}

// EncodeCheckpoint packs a checkpoint into one opaque string:
// checkpointMagic, the frontier, the state's pairs in key order, then the
// meta entry.
func EncodeCheckpoint(c Checkpoint) (string, error) {
	if c.Frontier < 0 {
		return "", fmt.Errorf("checkpoint frontier %d is negative", c.Frontier)
	}
	keys := make([]string, 0, len(c.State))
	n := len(checkpointMagic) + 3*binary.MaxVarintLen64 + len(c.Meta)
	for k, v := range c.State {
		keys = append(keys, k)
		n += 2*binary.MaxVarintLen64 + len(k) + len(v)
	}
	slices.Sort(keys) // one state, one encoding
	b := make([]byte, 0, n)
	b = append(b, checkpointMagic...)
	b = AppendUvarint(AppendVarint(b, c.Frontier), uint64(len(keys)))
	for _, k := range keys {
		b = AppendString(AppendString(b, k), c.State[k])
	}
	b = AppendString(AppendVarint(b, c.MetaSlot), c.Meta)
	return string(b), nil
}

// IsCheckpoint reports whether a value is a checkpoint produced by
// EncodeCheckpoint.
func IsCheckpoint(v string) bool {
	return len(v) >= len(checkpointMagic) && v[:len(checkpointMagic)] == checkpointMagic
}

// DecodeCheckpoint unpacks a checkpoint value. Each key, value and the meta
// entry is its own copy: v usually sits inside a larger snapshot-install
// message, and a restored key that is never overwritten must not keep that
// message, or the rest of the checkpoint, alive.
func DecodeCheckpoint(v string) (Checkpoint, error) {
	if !IsCheckpoint(v) {
		return Checkpoint{}, fmt.Errorf("not a checkpoint value (missing marker)")
	}
	r := NewReader(v[len(checkpointMagic):])
	c := Checkpoint{Frontier: r.Varint()}
	n := r.Count(2)
	c.State = make(map[string]string, n)
	for range n {
		k := strings.Clone(r.String())
		c.State[k] = strings.Clone(r.String())
	}
	c.MetaSlot, c.Meta = r.Varint(), strings.Clone(r.String())
	if err := r.Done(); err != nil {
		return Checkpoint{}, fmt.Errorf("decode checkpoint: %w", err)
	}
	if c.Frontier < 0 {
		return Checkpoint{}, fmt.Errorf("checkpoint frontier %d is negative", c.Frontier)
	}
	return c, nil
}

// splitEnvelope cuts topic and body out of a payload of exactly the shape
// Marshal emits: {"t":"<topic>"} or {"t":"<topic>","b":<body>} with a
// plain topic and a non-empty body. The body is everything between the key
// and the final byte, aliasing the payload (capacity-clipped so an append
// cannot write into it). ok is false for any other input.
func splitEnvelope(p []byte) (m Message, ok bool) {
	if len(p) < len(topicOpen)+2 || string(p[:len(topicOpen)]) != topicOpen || p[len(p)-1] != '}' {
		return Message{}, false
	}
	rest := p[len(topicOpen) : len(p)-1]
	end := bytes.IndexByte(rest, '"')
	if end < 0 || !plainTopic(rest[:end]) {
		return Message{}, false
	}
	topic, rest := rest[:end], rest[end+1:]
	switch {
	case len(rest) == 0:
		return Message{Topic: string(topic)}, true
	case len(rest) > len(bodyKey) && string(rest[:len(bodyKey)]) == bodyKey:
		return Message{Topic: string(topic), Body: rest[len(bodyKey):len(rest):len(rest)]}, true
	}
	return Message{}, false
}

// Unmarshal splits a payload into its envelope. The Body aliases the
// payload, so the caller must not modify the payload while the Message is
// in use.
func Unmarshal(payload []byte) (Message, error) {
	if m, ok := splitEnvelope(payload); ok {
		return m, nil
	}
	return Message{}, fmt.Errorf("unmarshal: not a message envelope (%d bytes)", len(payload))
}

// Decode decodes a message body into v.
func Decode(m Message, v Decoder) error {
	if err := v.DecodeWire(m.Body); err != nil {
		return fmt.Errorf("decode body of topic %q: %w", m.Topic, err)
	}
	return nil
}
