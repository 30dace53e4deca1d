package workload

import (
	"falcon/internal/rdma"
	"falcon/internal/swtransport"
)

// FalconPipe adapts an RDMA QP to the migration Pipe interface: bulk
// transfers are large writes, fetches are small reads.
type FalconPipe struct {
	qp *rdma.QP
	// ChunkBytes bounds a single Transfer's write size (segmentation is
	// below in the ULP; this bounds TL resource usage).
	ChunkBytes int
}

// NewFalconPipe wraps a QP whose peer has registered (size-only) memory.
func NewFalconPipe(qp *rdma.QP) *FalconPipe {
	return &FalconPipe{qp: qp, ChunkBytes: 256 << 10}
}

// Transfer implements Pipe via chunked RDMA writes.
func (p *FalconPipe) Transfer(n int, done func()) {
	if n <= 0 {
		done()
		return
	}
	var next func(off int)
	next = func(off int) {
		if off >= n {
			done()
			return
		}
		chunk := n - off
		if chunk > p.ChunkBytes {
			chunk = p.ChunkBytes
		}
		p.qp.Write(0, 0, nil, chunk, func(c rdma.Completion) {
			next(off + chunk)
		})
	}
	next(0)
}

// Fetch implements Pipe via a single RDMA read.
func (p *FalconPipe) Fetch(n int, done func()) {
	p.qp.Read(0, 0, n, func(c rdma.Completion) { done() })
}

// SWPipe adapts a software-transport connection to the Pipe interface.
type SWPipe struct {
	conn *swtransport.Conn
}

// NewSWPipe wraps a software-transport connection.
func NewSWPipe(c *swtransport.Conn) *SWPipe { return &SWPipe{conn: c} }

// Transfer implements Pipe.
func (p *SWPipe) Transfer(n int, done func()) { p.conn.Send(n, done) }

// Fetch implements Pipe (request/response round trip).
func (p *SWPipe) Fetch(n int, done func()) { p.conn.Call(64, n, done) }
