package operators

import (
	"bytes"
	"io"

	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

// JoinEmitter receives one joined row of the Msg ⟕⟖ Vertex join
// (Figure 2). Exactly one of the three Pregel cases holds per call:
//
//   - inner:       msg != nil, vertex != nil
//   - left-outer:  msg != nil, vertex == nil (message to missing vertex)
//   - right-outer: msg == nil, vertex != nil (vertex without messages)
//
// vid is always set. The emitter must not retain any of the three
// slices: they may point into a frame the next row reuses.
type JoinEmitter func(vid, msg, vertex []byte) error

// FullOuterIndexJoin merges the sorted combined-message stream (tuples of
// (vid, payload)) with a full scan of the vertex index, emitting every
// join case. This is the left plan of Figure 8: a single merge pass that
// reads every vertex, suited to algorithms where most vertices are live
// (e.g. PageRank).
func FullOuterIndexJoin(msgs tuple.RefSource, idx storage.Index, emit JoinEmitter) error {
	cur, err := idx.ScanFrom(nil)
	if err != nil {
		return err
	}
	defer cur.Close()

	m, merr := msgs.NextRef()
	vk, vv, vok := cur.Next()
	for {
		if merr != nil && merr != io.EOF {
			return merr
		}
		switch {
		case merr == nil && vok:
			mk := m.Field(0)
			c := bytes.Compare(mk, vk)
			switch {
			case c == 0: // inner
				if err := emit(vk, msgPayload(m), vv); err != nil {
					return err
				}
				m, merr = msgs.NextRef()
				vk, vv, vok = cur.Next()
			case c < 0: // message without vertex
				if err := emit(mk, msgPayload(m), nil); err != nil {
					return err
				}
				m, merr = msgs.NextRef()
			default: // vertex without message
				if err := emit(vk, nil, vv); err != nil {
					return err
				}
				vk, vv, vok = cur.Next()
			}
		case merr == nil: // vertices exhausted
			if err := emit(m.Field(0), msgPayload(m), nil); err != nil {
				return err
			}
			m, merr = msgs.NextRef()
		case vok: // messages exhausted
			if err := emit(vk, nil, vv); err != nil {
				return err
			}
			vk, vv, vok = cur.Next()
		default:
			return cur.Err()
		}
	}
}

// ProbeJoinLeftOuter probes the vertex index once per input tuple
// (vid, payload), emitting inner or left-outer rows. Tuples whose payload
// is the NullMsg marker (empty) represent live vertices from the Vid
// index rather than real messages, and reach emit with msg == nil. This
// is the right plan of Figure 8: it avoids scanning vertices that are
// neither live nor addressed, suited to message-sparse algorithms (e.g.
// SSSP).
func ProbeJoinLeftOuter(in tuple.RefSource, idx storage.Index, emit JoinEmitter) error {
	for {
		r, err := in.NextRef()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		vid := r.Field(0)
		v, err := idx.Search(vid)
		if err == storage.ErrNotFound {
			v, err = nil, nil
		}
		if err != nil {
			return err
		}
		if err := emit(vid, msgPayload(r), v); err != nil {
			return err
		}
	}
}

// msgPayload returns a (vid, payload) tuple's payload, or nil when it is
// empty: an empty payload is the NullMsg of a Vid-index entry, which
// joins as "no message".
func msgPayload(r tuple.TupleRef) []byte {
	if p := r.Field(1); len(p) > 0 {
		return p
	}
	return nil
}

// ChooseMergeSource is the Merge(choose()) operator of the
// left-outer-join plan, a tuple.RefSource: it merges the combined Msg
// stream with the Vid stream of (vid, NULL) tuples by vid, and when both
// carry a vid the message wins and the Vid entry is dropped, so a vertex
// that is both live and addressed is processed once with its real
// messages. A source advances only at the call after its tuple is
// returned, so the returned ref stays valid until the next call.
type ChooseMergeSource struct {
	msgs, vids   tuple.RefSource
	m, v         tuple.TupleRef
	merr, verr   error
	nextM, nextV bool // advance that source before comparing
}

// NewChooseMergeSource returns the choose-merge of msgs and vids, both
// sorted by vid (field 0).
func NewChooseMergeSource(msgs, vids tuple.RefSource) *ChooseMergeSource {
	return &ChooseMergeSource{msgs: msgs, vids: vids, nextM: true, nextV: true}
}

// NextRef implements tuple.RefSource.
func (c *ChooseMergeSource) NextRef() (tuple.TupleRef, error) {
	if c.nextM {
		c.m, c.merr = c.msgs.NextRef()
		c.nextM = false
	}
	if c.nextV {
		c.v, c.verr = c.vids.NextRef()
		c.nextV = false
	}
	switch {
	case c.merr != nil && c.merr != io.EOF:
		return tuple.TupleRef{}, c.merr
	case c.verr != nil && c.verr != io.EOF:
		return tuple.TupleRef{}, c.verr
	case c.merr != nil && c.verr != nil:
		return tuple.TupleRef{}, io.EOF
	}
	var cmp int
	switch {
	case c.merr != nil: // only Vid entries remain
		cmp = 1
	case c.verr != nil: // only messages remain
		cmp = -1
	default:
		cmp = bytes.Compare(c.m.Field(0), c.v.Field(0))
	}
	c.nextM, c.nextV = cmp <= 0, cmp >= 0
	if cmp <= 0 {
		return c.m, nil
	}
	return c.v, nil
}

// NullMsgSource scans an index's keys as (key, NULL) tuples: the NullMsg
// function of Figure 8 over the Vid live-vertex index. Each tuple is
// packed into one pooled frame the source holds until Close, so the scan
// allocates nothing beyond what the cursor does. A nil cursor is an
// empty scan.
type NullMsgSource struct {
	cur storage.IndexCursor
	app tuple.FrameAppender
}

// NewNullMsgSource returns the (key, NULL) scan of cur.
func NewNullMsgSource(cur storage.IndexCursor) *NullMsgSource {
	s := &NullMsgSource{cur: cur}
	s.app.Reset(tuple.GetFrame())
	return s
}

// NextRef implements tuple.RefSource.
func (s *NullMsgSource) NextRef() (tuple.TupleRef, error) {
	if s.cur == nil {
		return tuple.TupleRef{}, io.EOF
	}
	k, _, ok := s.cur.Next()
	if !ok {
		if err := s.cur.Err(); err != nil {
			return tuple.TupleRef{}, err
		}
		return tuple.TupleRef{}, io.EOF
	}
	f := s.app.Frame()
	f.Reset()
	s.app.Append(k, nil)
	return f.Tuple(0), nil
}

// Close releases the cursor and the frame.
func (s *NullMsgSource) Close() {
	if s.cur != nil {
		s.cur.Close()
	}
	tuple.PutFrame(s.app.Frame())
}
