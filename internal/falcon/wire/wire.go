// Package wire defines the Falcon packet formats exchanged between NICs.
//
// The layout follows §4 of the paper: every packet carries a connection ID,
// a packet sequence number (PSN) scoped to one of two sequence spaces
// (request and response, see §A.1), a request sequence number (RSN) for
// transaction ordering (§A.2), an IPv6-style flow label whose low bits embed
// the multipath flow index (§4.3), and a hardware transmit timestamp t1
// (§4.2). ACKs additionally carry the receiver's 128-bit RX bitmaps for both
// sequence spaces, the timestamp echoes (t1, t2, t3) needed for the
// (t4-t1)-(t3-t2) fabric-delay computation, and the RX-buffer-occupancy NIC
// congestion signal used for ncwnd modulation.
//
// Inside the simulator packets are passed by pointer (zero-copy); Marshal
// and Unmarshal exist so the same structs can ride a real bearer such as UDP
// (see examples/udptunnel) and to keep header overhead accounting honest.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type enumerates Falcon packet types.
type Type uint8

const (
	// TypeInvalid is the zero value; never valid on the wire.
	TypeInvalid Type = iota
	// TypePushData carries ULP payload from requester to responder
	// (RDMA Write/Send, NVMe Write). Request sequence space.
	TypePushData
	// TypePullRequest solicits data from the responder (RDMA Read,
	// NVMe Read). Request sequence space.
	TypePullRequest
	// TypePullResponse carries the data answering a PullRequest.
	// Response sequence space.
	TypePullResponse
	// TypeAck acknowledges received packets via cumulative base + bitmap.
	TypeAck
	// TypeNack signals an exception (resource exhaustion, RNR, CIE).
	TypeNack
	// TypeResync re-establishes sequence state after an RTO storm. Kept
	// for completeness of the state machine; rarely exercised.
	TypeResync
)

var typeNames = map[Type]string{
	TypeInvalid:      "INVALID",
	TypePushData:     "PUSH_DATA",
	TypePullRequest:  "PULL_REQ",
	TypePullResponse: "PULL_RESP",
	TypeAck:          "ACK",
	TypeNack:         "NACK",
	TypeResync:       "RESYNC",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// IsData reports whether the packet type occupies a sequence-number slot and
// is therefore subject to reliability and congestion control.
func (t Type) IsData() bool {
	return t == TypePushData || t == TypePullRequest || t == TypePullResponse || t == TypeResync
}

// Space identifies which of the two per-direction PSN spaces a packet
// belongs to (§A.1): requests and responses are sequenced independently so
// that finite resources can never deadlock request delivery against
// response delivery.
type Space uint8

const (
	// SpaceRequest sequences PushData and PullRequest packets.
	SpaceRequest Space = iota
	// SpaceResponse sequences PullResponse packets.
	SpaceResponse
	// NumSpaces is the number of sequence spaces per direction.
	NumSpaces = 2
)

func (s Space) String() string {
	switch s {
	case SpaceRequest:
		return "req"
	case SpaceResponse:
		return "resp"
	}
	return fmt.Sprintf("Space(%d)", uint8(s))
}

// SpaceOf returns the sequence space for a data packet type.
func SpaceOf(t Type) Space {
	if t == TypePullResponse {
		return SpaceResponse
	}
	return SpaceRequest
}

// NackCode enumerates the exception classes a Falcon responder can raise
// (§4.4, §4.5).
type NackCode uint8

const (
	// NackNone: not a NACK.
	NackNone NackCode = iota
	// NackResourceExhausted: receiver had no RX resources for the packet;
	// the sender backs off and retransmits later.
	NackResourceExhausted
	// NackRNR: the target ULP is not ready (Receiver Not Ready); the
	// packet must be retried after RetryDelay. Falcon handles the retry
	// transparently to the ULP.
	NackRNR
	// NackCIE: Complete-in-Error-and-Continue; the target ULP failed the
	// transaction (e.g. memory protection error). The initiator completes
	// this transaction with an error and subsequent transactions proceed.
	NackCIE
	// NackXoff: receiver requests the sender pause this connection
	// (per-connection flow control echo).
	NackXoff
)

func (c NackCode) String() string {
	switch c {
	case NackNone:
		return "NONE"
	case NackResourceExhausted:
		return "RESOURCE"
	case NackRNR:
		return "RNR"
	case NackCIE:
		return "CIE"
	case NackXoff:
		return "XOFF"
	}
	return fmt.Sprintf("NackCode(%d)", uint8(c))
}

// Flag bits carried in the header flags byte.
const (
	// FlagAckReq is the AR bit: the receiver should generate an ACK
	// promptly rather than coalescing (§5, Table 3 "Pure ACK Generation").
	FlagAckReq uint8 = 1 << 0
	// FlagRetransmit marks a retransmitted packet (diagnostics only; the
	// receiver path does not branch on it).
	FlagRetransmit uint8 = 1 << 1
	// FlagTLP marks a tail-loss-probe retransmission.
	FlagTLP uint8 = 1 << 2
	// FlagOrdered is set on packets of ordered connections (diagnostics).
	FlagOrdered uint8 = 1 << 3
	// FlagCE is the ECN congestion-experienced mark copied from the
	// fabric onto a data packet at NIC ingress.
	FlagCE uint8 = 1 << 4
	// FlagECE is the receiver's ECN echo on ACKs: at least one CE-marked
	// packet arrived since the previous ACK (Table 3 lists ECN among the
	// congestion-control interface signals).
	FlagECE uint8 = 1 << 5
)

// FlowIndexBits is the number of low bits of the flow label that encode the
// flow index, giving MaxFlows flows per connection (§4.3: "This Flow Label
// also includes the flow's index").
const FlowIndexBits = 2

// MaxFlows is the maximum number of multipath flows per connection.
const MaxFlows = 1 << FlowIndexBits

// FlowLabel is an IPv6-style 20-bit flow label whose low FlowIndexBits bits
// carry the flow index so the receiver can attribute congestion metadata to
// the right flow.
type FlowLabel uint32

// MakeFlowLabel combines a path discriminator with a flow index.
func MakeFlowLabel(path uint32, flowIndex int) FlowLabel {
	return FlowLabel(path<<FlowIndexBits | uint32(flowIndex)&(MaxFlows-1))
}

// FlowIndex extracts the flow index embedded in the label.
func (l FlowLabel) FlowIndex() int { return int(l & (MaxFlows - 1)) }

// Path extracts the path discriminator (everything above the index bits).
func (l FlowLabel) Path() uint32 { return uint32(l) >> FlowIndexBits }

// WithPath returns a label with the same flow index but a new path
// discriminator; this is how PLB/PRR repath a flow.
func (l FlowLabel) WithPath(path uint32) FlowLabel {
	return MakeFlowLabel(path, l.FlowIndex())
}

// AckInfo is the acknowledgment state for one sequence space: a cumulative
// base (all PSNs below Base received) plus a 128-bit bitmap of receipt
// status for PSNs in [Base, Base+128).
type AckInfo struct {
	Base   uint32
	Bitmap Bitmap
}

// Packet is a Falcon wire packet. Payload sizes are modeled by Length; Data
// optionally carries real bytes for end-to-end examples.
type Packet struct {
	Type     Type
	Flags    uint8
	NackCode NackCode
	// RetryDelayNs is meaningful for NackRNR: the delay after which the
	// initiator should retry, in nanoseconds.
	RetryDelayNs uint32

	// ConnID identifies the destination connection on the receiving NIC.
	ConnID uint32
	// FlowLabel selects the network path and embeds the flow index.
	FlowLabel FlowLabel
	// PSN is the packet sequence number within Space.
	PSN uint32
	// Space is the sequence space PSN belongs to.
	Space Space
	// RSN is the request sequence number of the transaction this packet
	// belongs to; responses echo the request's RSN.
	RSN uint64

	// T1 is the sender's wire transmit timestamp (ns). On ACKs, T1Echo,
	// T2 and T3 implement the four-timestamp delay decomposition.
	T1     int64
	T1Echo int64
	T2     int64
	T3     int64

	// Req and Resp carry the receiver's RX window state for the two
	// sequence spaces. Meaningful on ACK (and NACK, best effort).
	Req  AckInfo
	Resp AckInfo

	// CompletedRSN is, on ACKs of ordered connections, one past the
	// highest request sequence number whose transaction the target ULP
	// has completed in order (Figure 5: the ACK that follows Push
	// Completions is what releases initiator-side completions).
	CompletedRSN uint64

	// RxBufOccupancy is the receiver NIC's RX packet-buffer occupancy in
	// 1/65535 units of capacity; the ncwnd congestion signal.
	RxBufOccupancy uint16
	// AckFlowIndex is the flow whose congestion metadata (T-echoes) this
	// ACK carries; a single ACK acknowledges PSNs across all flows but
	// its delay sample belongs to one flow.
	AckFlowIndex uint8

	// Length is the ULP payload length in bytes (0 for pure ACK/NACK).
	Length uint32
	// PullLength is, on PullRequest packets, the number of response
	// bytes the requester solicits (the request itself is header-only).
	PullLength uint32

	// UlpOp and Addr belong to the ULP mapping layer: Falcon treats them
	// as opaque transaction metadata (they ride where a real deployment
	// would put the ULP header inside the payload). UlpOp identifies the
	// ULP operation (RDMA Write/Send/Read/Atomic, NVMe command); Addr is
	// the remote address/offset the operation targets.
	UlpOp uint8
	Addr  uint64
	// Data optionally carries the payload bytes (may be nil even when
	// Length > 0; the simulator models size without materializing bytes).
	Data []byte

	// Holds is the packet's PacketPool bookkeeping; its holder count
	// sits in the padding after its pooled mark, so the struct does not
	// grow.
	Holds
}

// headerLen is the fixed marshaled header size in bytes.
const headerLen = 1 + 1 + 1 + 1 + // type, flags, nackCode, space
	4 + // retryDelay
	4 + 4 + 4 + 1 + // connID, flowLabel, PSN, ackFlowIndex
	8 + // RSN
	8*4 + // t1, t1echo, t2, t3
	(4 + 16) + (4 + 16) + // req ack info, resp ack info
	8 + // completedRSN
	2 + // rxBufOccupancy
	4 + // length
	4 + // pullLength
	1 + 8 // ulpOp, addr

// HeaderLen returns the marshaled Falcon header length in bytes. It is what
// the simulator charges as per-packet header overhead on the wire.
func HeaderLen() int { return headerLen }

// WireSize returns the bytes this packet occupies on the wire (header plus
// modeled payload length).
func (p *Packet) WireSize() int { return headerLen + int(p.Length) }

// Segments is how many MTU-sized packets carry a message of size bytes: at
// least one, since a zero-byte message is still one packet.
func Segments(size, mtu int) int { return max(1, (size+mtu-1)/mtu) }

// Segment returns the byte offset and the length of segment i of a message
// of size bytes.
func Segment(size, mtu, i int) (off, n int) {
	off = i * mtu
	return off, min(max(size-off, 0), mtu)
}

// ErrShortBuffer is returned by Unmarshal when the input cannot hold a
// Falcon header.
var ErrShortBuffer = errors.New("wire: buffer too short for falcon header")

// ErrBadType is returned by Unmarshal for an unknown packet type.
var ErrBadType = errors.New("wire: unknown packet type")

// ErrBadSpace is returned by Unmarshal for a sequence-space byte outside
// [0, NumSpaces). Validating here matters: the PDL indexes per-space state
// arrays by Space, so an unvalidated corrupt header would panic deep in the
// receive path instead of being dropped at the parser.
var ErrBadSpace = errors.New("wire: invalid sequence space")

// Marshal appends the packet's wire representation to dst and returns the
// extended slice. Payload bytes from Data are appended when present;
// otherwise Length is recorded in the header but no payload bytes follow
// (simulation mode).
func (p *Packet) Marshal(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerLen)...)
	b := dst[off:]
	b[0] = byte(p.Type)
	b[1] = p.Flags
	b[2] = byte(p.NackCode)
	b[3] = byte(p.Space)
	be := binary.BigEndian
	be.PutUint32(b[4:], p.RetryDelayNs)
	be.PutUint32(b[8:], p.ConnID)
	be.PutUint32(b[12:], uint32(p.FlowLabel))
	be.PutUint32(b[16:], p.PSN)
	b[20] = p.AckFlowIndex
	be.PutUint64(b[21:], p.RSN)
	be.PutUint64(b[29:], uint64(p.T1))
	be.PutUint64(b[37:], uint64(p.T1Echo))
	be.PutUint64(b[45:], uint64(p.T2))
	be.PutUint64(b[53:], uint64(p.T3))
	be.PutUint32(b[61:], p.Req.Base)
	be.PutUint64(b[65:], p.Req.Bitmap[0])
	be.PutUint64(b[73:], p.Req.Bitmap[1])
	be.PutUint32(b[81:], p.Resp.Base)
	be.PutUint64(b[85:], p.Resp.Bitmap[0])
	be.PutUint64(b[93:], p.Resp.Bitmap[1])
	be.PutUint64(b[101:], p.CompletedRSN)
	be.PutUint16(b[109:], p.RxBufOccupancy)
	be.PutUint32(b[111:], p.Length)
	be.PutUint32(b[115:], p.PullLength)
	b[119] = p.UlpOp
	be.PutUint64(b[120:], p.Addr)
	if p.Data != nil {
		dst = append(dst, p.Data...)
	}
	return dst
}

// Unmarshal parses a packet from b, returning the number of bytes consumed.
// If the header's Length is nonzero and payload bytes are present they are
// copied into Data; a header-only buffer (simulation mode) yields Data nil.
func (p *Packet) Unmarshal(b []byte) (int, error) {
	if len(b) < headerLen {
		return 0, ErrShortBuffer
	}
	t := Type(b[0])
	if t == TypeInvalid || t > TypeResync {
		return 0, fmt.Errorf("%w: %d", ErrBadType, b[0])
	}
	if b[3] >= NumSpaces {
		return 0, fmt.Errorf("%w: %d", ErrBadSpace, b[3])
	}
	be := binary.BigEndian
	p.Type = t
	p.Flags = b[1]
	p.NackCode = NackCode(b[2])
	p.Space = Space(b[3])
	p.RetryDelayNs = be.Uint32(b[4:])
	p.ConnID = be.Uint32(b[8:])
	p.FlowLabel = FlowLabel(be.Uint32(b[12:]))
	p.PSN = be.Uint32(b[16:])
	p.AckFlowIndex = b[20]
	p.RSN = be.Uint64(b[21:])
	p.T1 = int64(be.Uint64(b[29:]))
	p.T1Echo = int64(be.Uint64(b[37:]))
	p.T2 = int64(be.Uint64(b[45:]))
	p.T3 = int64(be.Uint64(b[53:]))
	p.Req.Base = be.Uint32(b[61:])
	p.Req.Bitmap[0] = be.Uint64(b[65:])
	p.Req.Bitmap[1] = be.Uint64(b[73:])
	p.Resp.Base = be.Uint32(b[81:])
	p.Resp.Bitmap[0] = be.Uint64(b[85:])
	p.Resp.Bitmap[1] = be.Uint64(b[93:])
	p.CompletedRSN = be.Uint64(b[101:])
	p.RxBufOccupancy = be.Uint16(b[109:])
	p.Length = be.Uint32(b[111:])
	p.PullLength = be.Uint32(b[115:])
	p.UlpOp = b[119]
	p.Addr = be.Uint64(b[120:])
	n := headerLen
	p.Data = nil
	if p.Length > 0 && len(b) >= headerLen+int(p.Length) {
		p.Data = append([]byte(nil), b[headerLen:headerLen+int(p.Length)]...)
		n += int(p.Length)
	}
	return n, nil
}

func (p *Packet) String() string {
	switch p.Type {
	case TypeAck:
		return fmt.Sprintf("ACK conn=%d flow=%d req=%d/%v resp=%d/%v occ=%d",
			p.ConnID, p.AckFlowIndex, p.Req.Base, p.Req.Bitmap, p.Resp.Base, p.Resp.Bitmap, p.RxBufOccupancy)
	case TypeNack:
		return fmt.Sprintf("NACK(%v) conn=%d psn=%d/%v rsn=%d", p.NackCode, p.ConnID, p.PSN, p.Space, p.RSN)
	default:
		return fmt.Sprintf("%v conn=%d psn=%d/%v rsn=%d len=%d flow=%d",
			p.Type, p.ConnID, p.PSN, p.Space, p.RSN, p.Length, p.FlowLabel.FlowIndex())
	}
}
