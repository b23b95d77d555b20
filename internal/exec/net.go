package exec

import (
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// Every network crossing — Ship's stream-open message, a remote
// IndexNLJoin's key message per probe, the Filter Join's filter-set
// shipment — goes through Context.Send. Rows never move: a crossing
// charges NetMsgs and NetBytes, which is all the semi-join vs
// fetch-matches vs ship-whole tradeoff (paper §5.1) depends on.

// Transport delivers one network message to a remote site, charging the
// crossing to ctx.Counter. It is declared here (rather than in dist,
// which implements it) so the Context can carry one without exec
// depending on the fault model. A failed delivery — after whatever retry
// policy the implementation applies — comes back as a typed error the
// operator tree propagates unchanged, so the facade can recognize it and
// degrade to a fault-free plan.
type Transport interface {
	Send(ctx *Context, site int, bytes int64) error
}

// Send routes one message crossing to site through the context's
// transport. The nil-transport path is the free instant network: charge
// the message and its bytes, deliver. Callers must propagate a non-nil
// error — it is either the caller context's cancellation or a typed site
// error the facade needs intact to degrade (the lifecycle sweep fails
// each send in turn and checks the run returns exactly that).
func (ctx *Context) Send(site int, bytes int64) error {
	if ctx.Net == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		ctx.Counter.NetMsgs++
		ctx.Counter.NetBytes += bytes
		return nil
	}
	return ctx.Net.Send(ctx, site, bytes)
}

// Ship moves its child's entire output stream across the network: one
// message per Open plus RowBytes per row. It models both "ship the whole
// inner to the query site" and "ship the filtered inner back" legs.
//
// Ship is row-at-a-time — one row step lifted by FillRows, its child read
// through a RowReader — so the subtree below it is pulled with budget 1
// whatever the morsel size, and the sends it contains happen in one
// global order: a chaos transport's fault schedule replays identically
// at every morsel size (batch.go).
type Ship struct {
	Child    Operator
	RowBytes int
	Site     int       // the remote site the stream crosses from
	in       RowReader // the child is read one row at a time
}

// NewShip wraps child in a network shipment of rowBytes per row from
// the given site.
func NewShip(child Operator, rowBytes, site int) *Ship {
	return &Ship{Child: child, RowBytes: rowBytes, Site: site}
}

// Schema implements Operator.
func (s *Ship) Schema() *schema.Schema { return s.Child.Schema() }

// Open implements Operator.
//
// The stream-open message is charged only after the child opens: a
// failed child open consumed no network, and charging first would leave
// a phantom NetMsg that breaks cost conservation on error paths. When
// the message itself fails (chaos transport out of retries), the child
// is closed again before the error propagates, because callers do not
// Close an operator whose Open failed.
func (s *Ship) Open(ctx *Context) error {
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	if err := ctx.Send(s.Site, 0); err != nil {
		s.Child.Close(ctx)
		return err
	}
	return nil
}

// NextBatch implements Operator by lifting the row step.
func (s *Ship) NextBatch(ctx *Context, dst *Batch, max int) error {
	return FillRows(ctx, dst, max, s.next)
}

// next ships one child row.
func (s *Ship) next(ctx *Context) (value.Row, bool, error) {
	r, ok, err := s.in.Read(ctx, s.Child)
	if err != nil || !ok {
		return nil, false, err
	}
	ctx.Counter.NetBytes += int64(s.RowBytes)
	ctx.Counter.CPUTuples++
	return r, true, nil
}

// Close implements Operator.
func (s *Ship) Close(ctx *Context) { s.Child.Close(ctx) }
