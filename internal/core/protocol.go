package core

// This file contains a message-level model of the C3D coherence protocol for
// ONE cache block, suitable for exhaustive state-space exploration by
// internal/mc. It mirrors the Murϕ verification described in §IV-C of the
// paper: a global directory with three stable states, per-socket LLC and
// DRAM-cache controllers, an unordered interconnect, and the write-back /
// forwarding races that make directory protocols interesting.
//
// Modelling decisions (documented deviations from the timing engine):
//
//   - Upgrades are modelled as plain GetX requests (the paper treats them
//     identically except that the response carries no data, a bandwidth
//     optimisation with no protocol-state consequence).
//   - The directory is blocking per address: while a GetS/GetX transaction is
//     outstanding the directory defers further GetS/GetX for that block
//     (they stay in the network). PutX, InvAck and Unblock are always
//     deliverable, which is where the interesting races live.
//   - Data values are small integers: every store writes lastWrite+1, so the
//     checker can verify that loads observe the most recent write
//     (per-location sequential consistency) and that memory is up to date
//     whenever no on-chip cache holds the block Modified (the data-value
//     invariant enabled by clean DRAM caches).

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"c3d/internal/coherence"
)

// llcState is the on-chip (LLC and above) controller state for the block.
type llcState uint8

const (
	llcI   llcState = iota // not present
	llcS                   // read-only copy
	llcM                   // writable, possibly dirty copy
	llcISd                 // load miss outstanding, waiting for data
	llcIMa                 // store miss outstanding, waiting for data and acks
	llcMIa                 // Modified eviction outstanding, waiting for write-back ack
	llcIIa                 // lost ownership while evicting, waiting for write-back ack
)

func (s llcState) String() string {
	return [...]string{"I", "S", "M", "IS_D", "IM_AD", "MI_A", "II_A"}[s]
}

// dcState is the DRAM-cache controller state for the block. Because C3D keeps
// DRAM caches clean, the only states are "not present" and "holds a clean
// copy".
type dcState uint8

const (
	dcI dcState = iota
	dcV
)

func (s dcState) String() string {
	return [...]string{"I", "V"}[s]
}

// pendingOp is the core's outstanding memory operation, if any.
type pendingOp uint8

const (
	opNone pendingOp = iota
	opLoad
	opStore
)

// msgKind enumerates the protocol messages of the model. They correspond to
// the 15 message types of the paper's Murϕ model, folded slightly where a
// distinction has no state consequence.
type msgKind uint8

const (
	mGetS msgKind = iota
	mGetX
	mFwdGetS
	mFwdGetX
	mInv
	mInvAck
	mData        // block supplied by the previous owner
	mDataMem     // block supplied by memory at the home socket
	mPutX        // write-back of a Modified block (carries data)
	mAck         // write-back acknowledgement
	mUnblock     // transaction-complete notification from the requester
	mUnblockData // transaction-complete notification carrying data for memory
	numMsgKinds
)

func (k msgKind) String() string {
	return [...]string{"GetS", "GetX", "FwdGetS", "FwdGetX", "Inv", "InvAck",
		"Data", "DataMem", "PutX", "Ack", "Unblock", "UnblockData"}[k]
}

// message is one in-flight protocol message. Requester is carried by
// forwarded/invalidate messages so the responder knows where to send data or
// acks.
type message struct {
	Kind      msgKind
	Src, Dst  int8
	Requester int8
	Data      uint8
	Acks      int8
}

// socketState is the per-socket protocol state for the block.
type socketState struct {
	LLC     llcState
	LLCData uint8
	DC      dcState
	DCData  uint8

	Pending  pendingOp
	HaveData bool
	PendData uint8
	AcksNeed int8
	AcksGot  int8

	LoadsLeft  uint8
	StoresLeft uint8
}

// dirBusy records the transaction the blocking directory is serving.
type dirBusy struct {
	Busy        bool
	Requester   int8
	IsWrite     bool
	ForwardedTo int8 // socket a Fwd* was sent to, or -1
}

// protoState is the complete system state for one block.
type protoState struct {
	Sockets []socketState
	// Directory stable state, a coherence.DirState. DirOwner is -1 unless
	// the state is Modified.
	DirState uint8
	DirOwner int8
	Sharers  uint8 // bitmask
	Busy     dirBusy

	Memory    uint8
	LastWrite uint8

	Msgs []message
}

// dirEntry returns the directory's state as the entry Transition takes.
func (s *protoState) dirEntry() coherence.Entry {
	return coherence.Entry{
		State:   coherence.DirState(s.DirState),
		Owner:   int(s.DirOwner),
		Sharers: coherence.SharerSet(s.Sharers),
	}
}

// setDirEntry stores the entry Transition chose as the directory's state.
func (s *protoState) setDirEntry(e coherence.Entry) {
	s.DirState, s.DirOwner, s.Sharers = uint8(e.State), -1, uint8(e.Sharers)
	if e.State == coherence.DirModified {
		s.DirOwner = int8(e.Owner)
	}
}

// ProtocolConfig parameterises the model.
type ProtocolConfig struct {
	// Sockets is the number of sockets (the paper verifies small
	// configurations; 2 or 3 keeps the state space tractable).
	Sockets int
	// LoadsPerCore and StoresPerCore bound each core's operations.
	LoadsPerCore  int
	StoresPerCore int
	// TrackDRAMCache selects the c3d-full-dir variant (GetS allocates
	// directory entries, PutX downgrades to Shared, no broadcasts).
	TrackDRAMCache bool
}

// ProtocolModel is the explorable model; it implements the interface expected
// by internal/mc (via duck typing — mc defines the interface).
type ProtocolModel struct {
	cfg  ProtocolConfig
	dir  DirTraits
	home int8
}

// NewProtocolModel builds a model from cfg.
func NewProtocolModel(cfg ProtocolConfig) *ProtocolModel {
	if cfg.Sockets < 1 || cfg.Sockets > 8 {
		panic(fmt.Sprintf("core: protocol model supports 1..8 sockets, got %d", cfg.Sockets))
	}
	// The directory is Fig. 5 as checked: the c3d and c3d-full-dir traits,
	// with a PutX that races a forwarded request ignored as stale.
	dir := DirTraits{BroadcastUntracked: true, Stale: StaleFig5}
	if cfg.TrackDRAMCache {
		dir = DirTraits{AllocOnGetS: true, PutX: PutXLeavesShared, Stale: StaleFig5}
	}
	return &ProtocolModel{cfg: cfg, dir: dir, home: 0}
}

// Name identifies the model in reports.
func (m *ProtocolModel) Name() string {
	variant := "c3d"
	if m.cfg.TrackDRAMCache {
		variant = "c3d-full-dir"
	}
	return fmt.Sprintf("%s/%d-socket/%dL%dS", variant, m.cfg.Sockets, m.cfg.LoadsPerCore, m.cfg.StoresPerCore)
}

// Initial returns the single initial state: everything invalid, memory holds
// value 0.
func (m *ProtocolModel) Initial() []string {
	s := protoState{
		Sockets:  make([]socketState, m.cfg.Sockets),
		DirState: uint8(coherence.DirInvalid),
		DirOwner: -1,
		Busy:     dirBusy{ForwardedTo: -1},
	}
	for i := range s.Sockets {
		s.Sockets[i].LoadsLeft = uint8(m.cfg.LoadsPerCore)
		s.Sockets[i].StoresLeft = uint8(m.cfg.StoresPerCore)
	}
	return []string{encodeState(&s)}
}

// Quiescent reports whether the state has no outstanding work: no messages in
// flight, no pending core operations and an idle directory. States without
// successors must be quiescent, otherwise the system has deadlocked.
func (m *ProtocolModel) Quiescent(enc string) bool {
	sc := scratchPool.Get().(*modelScratch)
	decodeStateInto(&sc.base, enc)
	q := quiescentDecoded(&sc.base)
	scratchPool.Put(sc)
	return q
}

func quiescentDecoded(s *protoState) bool {
	if len(s.Msgs) != 0 || s.Busy.Busy {
		return false
	}
	for i := range s.Sockets {
		if s.Sockets[i].Pending != opNone {
			return false
		}
		switch s.Sockets[i].LLC {
		case llcISd, llcIMa, llcMIa, llcIIa:
			return false
		}
	}
	return true
}

// Check verifies the state invariants:
//
//  1. Single-Writer-Multiple-Reader: at most one socket holds the block
//     Modified on-chip, and while one does, no other socket holds any valid
//     copy (LLC or DRAM cache).
//  2. Clean DRAM caches: a DRAM cache never holds the block while the
//     directory believes memory is the owner *and* the value differs from
//     memory — checked in the quiescent-state data-value invariant below.
//  3. Data-value invariant (quiescent states): if no on-chip cache is
//     Modified, memory holds the most recent written value and every valid
//     copy agrees with it; if a socket is Modified, that socket holds the
//     most recent value.
func (m *ProtocolModel) Check(enc string) error {
	sc := scratchPool.Get().(*modelScratch)
	decodeStateInto(&sc.base, enc)
	err := checkDecoded(&sc.base)
	scratchPool.Put(sc)
	return err
}

func checkDecoded(s *protoState) error {
	owner := -1
	for i := range s.Sockets {
		if s.Sockets[i].LLC == llcM {
			if owner >= 0 {
				return fmt.Errorf("SWMR violated: sockets %d and %d both Modified", owner, i)
			}
			owner = i
		}
	}
	if owner >= 0 {
		for i := range s.Sockets {
			if i == owner {
				continue
			}
			if s.Sockets[i].LLC == llcS || s.Sockets[i].LLC == llcM {
				return fmt.Errorf("SWMR violated: socket %d holds a copy while socket %d is Modified", i, owner)
			}
			if s.Sockets[i].DC == dcV {
				return fmt.Errorf("stale-copy violation: socket %d DRAM cache holds the block while socket %d is Modified", i, owner)
			}
		}
	}
	if !quiescentDecoded(s) {
		return nil
	}
	// Quiescent-state data-value checks.
	if owner >= 0 {
		if s.Sockets[owner].LLCData != s.LastWrite {
			return fmt.Errorf("data-value violated: owner socket %d holds %d, last write was %d",
				owner, s.Sockets[owner].LLCData, s.LastWrite)
		}
		return nil
	}
	if s.Memory != s.LastWrite {
		return fmt.Errorf("data-value violated: memory holds %d, last write was %d (clean property broken)",
			s.Memory, s.LastWrite)
	}
	for i := range s.Sockets {
		// The observable copy of a socket is its LLC copy if valid, else its
		// DRAM cache copy. A DRAM cache copy shadowed by a valid LLC copy may
		// legitimately be stale (the paper notes this for Modified on-chip
		// copies): every path that removes the LLC copy either refreshes the
		// DRAM cache copy (eviction) or invalidates it (invalidation goes to
		// the DRAM cache first), so the stale value is never observable.
		switch {
		case s.Sockets[i].LLC == llcS:
			if s.Sockets[i].LLCData != s.LastWrite {
				return fmt.Errorf("data-value violated: socket %d LLC holds stale value %d (last write %d)",
					i, s.Sockets[i].LLCData, s.LastWrite)
			}
		case s.Sockets[i].DC == dcV:
			if s.Sockets[i].DCData != s.LastWrite {
				return fmt.Errorf("data-value violated: socket %d DRAM cache holds observable stale value %d (last write %d)",
					i, s.Sockets[i].DCData, s.LastWrite)
			}
		}
	}
	return nil
}

// Successors enumerates every state reachable in one atomic step: a core
// issuing an operation, a spontaneous eviction, or the delivery of one
// in-flight message. It returns an error if a transition itself violates a
// property (a load observing a stale value).
func (m *ProtocolModel) Successors(enc string) ([]string, error) {
	return m.SuccessorsAppend(enc, nil)
}

// SuccessorsAppend is the model checker's fast path (mc.AppendModel): it
// appends the successors of enc to buf. The decoded source state, the working
// state each transition mutates, and the encoder's byte buffer all come from
// a pooled scratch, so the only allocation per successor is its canonical
// string. Safe for concurrent use — each call owns its scratch.
func (m *ProtocolModel) SuccessorsAppend(enc string, buf []string) ([]string, error) {
	sc := scratchPool.Get().(*modelScratch)
	defer scratchPool.Put(sc)
	s := &sc.base
	decodeStateInto(s, enc)
	out := buf

	// stage copies the source state into the scratch working state, which the
	// transition helpers then mutate in place (they receive and return the
	// same pointer, so the pre-scratch `clone` call sites read unchanged).
	stage := func() *protoState {
		copyStateInto(&sc.work, s)
		return &sc.work
	}
	add := func(n *protoState) {
		sc.enc = encodeStateAppend(sc.enc[:0], n)
		out = append(out, string(sc.enc))
	}

	// Core-initiated transitions. New operations issue only when the
	// previous one has completed and the on-chip controller is in a stable
	// state (an eviction write-back in flight also blocks the next access to
	// this block, as it would in hardware where the MSHR is occupied).
	for i := range s.Sockets {
		sock := &s.Sockets[i]
		stable := sock.LLC == llcI || sock.LLC == llcS || sock.LLC == llcM
		if sock.Pending == opNone && stable && sock.LoadsLeft > 0 {
			n, err := m.issueLoad(stage(), i)
			if err != nil {
				return out, err
			}
			add(n)
		}
		if sock.Pending == opNone && stable && sock.StoresLeft > 0 {
			add(m.issueStore(stage(), i))
		}
		// Spontaneous evictions model capacity pressure.
		if sock.Pending == opNone && sock.LLC == llcS {
			add(m.evictShared(stage(), i))
		}
		if sock.Pending == opNone && sock.LLC == llcM {
			add(m.evictModified(stage(), i))
		}
		if sock.DC == dcV {
			add(m.evictDRAMCache(stage(), i))
		}
	}

	// Message deliveries.
	for idx := range s.Msgs {
		msg := s.Msgs[idx]
		if msg.Dst == m.home && (msg.Kind == mGetS || msg.Kind == mGetX) && s.Busy.Busy {
			// Blocking directory: requests wait while a transaction is
			// outstanding.
			continue
		}
		if msg.Kind == mPutX && s.Busy.Busy && s.Busy.ForwardedTo == msg.Src {
			// Write-back race: the directory has forwarded the in-flight
			// transaction to this very socket. The write-back is deferred
			// until the transaction completes, so exactly one party (the
			// ex-owner, which still holds the data in MI_A) supplies the
			// requester.
			continue
		}
		n := stage()
		n.Msgs = append(n.Msgs[:idx], n.Msgs[idx+1:]...)
		next, err := m.deliver(n, msg)
		if err != nil {
			return out, err
		}
		if next != nil {
			add(next)
		}
	}
	return out, nil
}

// --- core-initiated transitions ---

func (m *ProtocolModel) issueLoad(s *protoState, i int) (*protoState, error) {
	sock := &s.Sockets[i]
	switch sock.LLC {
	case llcS, llcM:
		// On-chip hit.
		if err := checkLoadValue(s, i, sock.LLCData); err != nil {
			return nil, err
		}
		sock.LoadsLeft--
		return s, nil
	case llcI:
		if sock.DC == dcV {
			// Local DRAM cache hit: the defining fast path of C3D. No
			// messages leave the socket.
			if err := checkLoadValue(s, i, sock.DCData); err != nil {
				return nil, err
			}
			sock.LLC = llcS
			sock.LLCData = sock.DCData
			sock.LoadsLeft--
			return s, nil
		}
		sock.LLC = llcISd
		sock.Pending = opLoad
		send(s, message{Kind: mGetS, Src: int8(i), Dst: m.home, Requester: int8(i)})
		return s, nil
	default:
		panic(fmt.Sprintf("core: issueLoad in unexpected state %v", sock.LLC))
	}
}

func (m *ProtocolModel) issueStore(s *protoState, i int) *protoState {
	sock := &s.Sockets[i]
	switch sock.LLC {
	case llcM:
		// Write hit.
		s.LastWrite++
		sock.LLCData = s.LastWrite
		sock.StoresLeft--
		return s
	case llcS, llcI:
		// Treat upgrades as GetX (see the file comment).
		sock.LLC = llcIMa
		sock.Pending = opStore
		sock.HaveData = false
		sock.AcksNeed = -1 // unknown until the directory answers
		sock.AcksGot = 0
		send(s, message{Kind: mGetX, Src: int8(i), Dst: m.home, Requester: int8(i)})
		return s
	default:
		panic(fmt.Sprintf("core: issueStore in unexpected state %v", sock.LLC))
	}
}

func (m *ProtocolModel) evictShared(s *protoState, i int) *protoState {
	sock := &s.Sockets[i]
	// Silent eviction; the victim is captured by the local DRAM cache
	// (victim-cache organisation, §II-C), which stays clean.
	sock.DC = dcV
	sock.DCData = sock.LLCData
	sock.LLC = llcI
	return s
}

func (m *ProtocolModel) evictModified(s *protoState, i int) *protoState {
	sock := &s.Sockets[i]
	// Fig. 5 PutX path: the DRAM cache takes a clean copy of the data and
	// forwards the write-back to the global directory; the LLC waits for the
	// directory's ack.
	sock.DC = dcV
	sock.DCData = sock.LLCData
	sock.LLC = llcMIa
	send(s, message{Kind: mPutX, Src: int8(i), Dst: m.home, Requester: int8(i), Data: sock.LLCData})
	return s
}

func (m *ProtocolModel) evictDRAMCache(s *protoState, i int) *protoState {
	// Clean DRAM cache: evictions are silent and never produce write-backs.
	s.Sockets[i].DC = dcI
	return s
}

// --- message delivery ---

func (m *ProtocolModel) deliver(s *protoState, msg message) (*protoState, error) {
	switch msg.Kind {
	case mGetS:
		return m.dirGetS(s, msg), nil
	case mGetX:
		return m.dirGetX(s, msg), nil
	case mPutX:
		return m.dirPutX(s, msg), nil
	case mUnblock, mUnblockData:
		return m.dirUnblock(s, msg), nil
	case mFwdGetS:
		return m.sockFwdGetS(s, msg), nil
	case mFwdGetX:
		return m.sockFwdGetX(s, msg), nil
	case mInv:
		return m.sockInv(s, msg), nil
	case mInvAck:
		return m.sockInvAck(s, msg)
	case mData, mDataMem:
		return m.sockData(s, msg)
	case mAck:
		return m.sockAck(s, msg), nil
	default:
		panic(fmt.Sprintf("core: unknown message kind %v", msg.Kind))
	}
}

func (m *ProtocolModel) dirGetS(s *protoState, msg message) *protoState {
	req := msg.Requester
	s.Busy = dirBusy{Busy: true, Requester: req, IsWrite: false, ForwardedTo: -1}
	next, act := Transition(m.dir, s.dirEntry(), int(req), GetS, false)
	if act.Source == FromOwnerLLC {
		owner := int8(act.Owner)
		send(s, message{Kind: mFwdGetS, Src: m.home, Dst: owner, Requester: req})
		s.Busy.ForwardedTo = owner
	} else {
		send(s, message{Kind: mDataMem, Src: m.home, Dst: req, Data: s.Memory})
	}
	s.setDirEntry(next)
	return s
}

func (m *ProtocolModel) dirGetX(s *protoState, msg message) *protoState {
	req := msg.Requester
	s.Busy = dirBusy{Busy: true, Requester: req, IsWrite: true, ForwardedTo: -1}
	next, act := Transition(m.dir, s.dirEntry(), int(req), GetX, false)
	if act.Source == FromOwnerLLC {
		owner := int8(act.Owner)
		send(s, message{Kind: mFwdGetX, Src: m.home, Dst: owner, Requester: req})
		s.Busy.ForwardedTo = owner
	} else {
		// Memory supplies the data; the requester collects one InvAck per
		// invalidated socket, every other socket under a broadcast.
		targets := act.Invalidate
		if act.Broadcast {
			targets = coherence.AllSockets(m.cfg.Sockets).Others(int(req))
		}
		targets.ForEach(func(j int) {
			send(s, message{Kind: mInv, Src: m.home, Dst: int8(j), Requester: req})
		})
		send(s, message{Kind: mDataMem, Src: m.home, Dst: req, Data: s.Memory, Acks: int8(targets.Count())})
	}
	s.setDirEntry(next)
	return s
}

func (m *ProtocolModel) dirPutX(s *protoState, msg message) *protoState {
	next, act := Transition(m.dir, s.dirEntry(), int(msg.Src), PutX, false)
	if !act.Keep {
		// The owner's write-back: the clean property is maintained by
		// writing the data through to memory. A stale PutX (the socket
		// already lost ownership) updates nothing.
		s.Memory = msg.Data
		s.setDirEntry(next)
	}
	send(s, message{Kind: mAck, Src: m.home, Dst: msg.Src})
	return s
}

func (m *ProtocolModel) dirUnblock(s *protoState, msg message) *protoState {
	if msg.Kind == mUnblockData {
		// The requester obtained the block from the previous owner on a
		// GetS; memory is updated so the Shared state's "memory is not
		// stale" invariant holds.
		s.Memory = msg.Data
	}
	s.Busy = dirBusy{ForwardedTo: -1}
	return s
}

func (m *ProtocolModel) sockFwdGetS(s *protoState, msg message) *protoState {
	i := int(msg.Dst)
	sock := &s.Sockets[i]
	switch sock.LLC {
	case llcM:
		// Downgrade to Shared, forward the data to the requester. Memory is
		// updated when the requester unblocks with the data.
		sock.LLC = llcS
		send(s, message{Kind: mData, Src: int8(i), Dst: msg.Requester, Data: sock.LLCData})
	case llcMIa:
		// Eviction in progress: the write-back is deferred at the directory
		// (see Successors), so this socket still holds the data and is the
		// one that must serve the requester. It stays in MI_A awaiting the
		// (deferred) write-back acknowledgement.
		send(s, message{Kind: mData, Src: int8(i), Dst: msg.Requester, Data: sock.LLCData})
	default:
		panic(fmt.Sprintf("core: socket %d received FwdGetS in state %v", i, sock.LLC))
	}
	return s
}

func (m *ProtocolModel) sockFwdGetX(s *protoState, msg message) *protoState {
	i := int(msg.Dst)
	sock := &s.Sockets[i]
	switch sock.LLC {
	case llcM:
		send(s, message{Kind: mData, Src: int8(i), Dst: msg.Requester, Data: sock.LLCData})
		sock.LLC = llcI
		// Losing ownership invalidates the whole hierarchy, including the
		// (possibly stale) DRAM cache copy.
		sock.DC = dcI
	case llcMIa:
		// Eviction in progress (write-back deferred at the directory): serve
		// the requester, drop every local copy, and keep waiting for the
		// write-back acknowledgement.
		send(s, message{Kind: mData, Src: int8(i), Dst: msg.Requester, Data: sock.LLCData})
		sock.LLC = llcIIa
		sock.DC = dcI
	default:
		panic(fmt.Sprintf("core: socket %d received FwdGetX in state %v", i, sock.LLC))
	}
	return s
}

func (m *ProtocolModel) sockInv(s *protoState, msg message) *protoState {
	i := int(msg.Dst)
	sock := &s.Sockets[i]
	// Invalidations go to the DRAM cache first, then the LLC (§IV-C).
	sock.DC = dcI
	if sock.LLC == llcS {
		sock.LLC = llcI
	}
	send(s, message{Kind: mInvAck, Src: int8(i), Dst: msg.Requester})
	return s
}

func (m *ProtocolModel) sockInvAck(s *protoState, msg message) (*protoState, error) {
	i := int(msg.Dst)
	sock := &s.Sockets[i]
	sock.AcksGot++
	return m.maybeCompleteStore(s, i)
}

func (m *ProtocolModel) sockData(s *protoState, msg message) (*protoState, error) {
	i := int(msg.Dst)
	sock := &s.Sockets[i]
	switch sock.LLC {
	case llcISd:
		if err := checkLoadValue(s, i, msg.Data); err != nil {
			return nil, err
		}
		sock.LLC = llcS
		sock.LLCData = msg.Data
		sock.Pending = opNone
		sock.LoadsLeft--
		if msg.Kind == mData {
			// Data came from the previous owner: carry it to memory with the
			// unblock so the Shared state's invariant holds.
			send(s, message{Kind: mUnblockData, Src: int8(i), Dst: m.home, Data: msg.Data})
		} else {
			send(s, message{Kind: mUnblock, Src: int8(i), Dst: m.home})
		}
		return s, nil
	case llcIMa:
		sock.HaveData = true
		sock.PendData = msg.Data
		if msg.Kind == mDataMem {
			sock.AcksNeed = msg.Acks
		} else {
			// Data forwarded from the previous owner: no invalidation acks
			// are outstanding.
			sock.AcksNeed = 0
		}
		return m.maybeCompleteStore(s, i)
	default:
		return nil, fmt.Errorf("socket %d received %v in unexpected state %v", i, msg.Kind, sock.LLC)
	}
}

func (m *ProtocolModel) maybeCompleteStore(s *protoState, i int) (*protoState, error) {
	sock := &s.Sockets[i]
	if sock.LLC != llcIMa || !sock.HaveData || sock.AcksNeed < 0 || sock.AcksGot < sock.AcksNeed {
		return s, nil
	}
	// All invalidations acknowledged and data present: perform the write.
	s.LastWrite++
	sock.LLC = llcM
	sock.LLCData = s.LastWrite
	sock.Pending = opNone
	sock.HaveData = false
	sock.AcksNeed = -1
	sock.AcksGot = 0
	sock.StoresLeft--
	send(s, message{Kind: mUnblock, Src: int8(i), Dst: m.home})
	return s, nil
}

func (m *ProtocolModel) sockAck(s *protoState, msg message) *protoState {
	i := int(msg.Dst)
	sock := &s.Sockets[i]
	if sock.LLC == llcMIa || sock.LLC == llcIIa {
		sock.LLC = llcI
	}
	return s
}

// checkLoadValue verifies per-location sequential consistency: a completing
// load must observe the most recent store's value.
func checkLoadValue(s *protoState, socket int, value uint8) error {
	if value != s.LastWrite {
		return fmt.Errorf("socket %d load observed value %d, most recent write is %d", socket, value, s.LastWrite)
	}
	return nil
}

// --- state plumbing ---

func send(s *protoState, msg message) { s.Msgs = append(s.Msgs, msg) }

// modelScratch is the per-call working memory of SuccessorsAppend, Check and
// Quiescent: a decoded source state, a staging state for transitions, and the
// encoder's byte buffer. Pooling it makes state exploration allocation-free
// apart from the successor strings themselves, which matters because the
// model checker decodes every state it visits (several million on the larger
// configurations).
type modelScratch struct {
	base protoState
	work protoState
	enc  []byte
}

var scratchPool = sync.Pool{New: func() any { return new(modelScratch) }}

// copyStateInto copies src into dst, reusing dst's socket and message
// backing arrays.
func copyStateInto(dst, src *protoState) {
	sockets, msgs := dst.Sockets, dst.Msgs
	*dst = *src
	dst.Sockets = append(sockets[:0], src.Sockets...)
	dst.Msgs = append(msgs[:0], src.Msgs...)
}

// State encoding. States are the model checker's currency: every transition
// encodes its result and every visited-set probe hashes the encoding, so the
// codec is the verification hot path. The format is a fixed-layout binary
// string (mc treats states as opaque strings): an 8-byte header, one byte for
// the socket count, 11 bytes per socket, and 6 bytes per in-flight message.
// int8 fields (-1 sentinels included) are stored as their two's-complement
// byte. The message multiset is sorted bytewise so that states differing only
// in message ordering hash identically.
const (
	encHeaderLen = 9
	encSockLen   = 11
	encMsgLen    = 6
)

func encodeState(s *protoState) string {
	return string(encodeStateAppend(nil, s))
}

// encodeStateAppend appends the canonical encoding of s to b and returns the
// extended buffer. It is the allocation-free core of encodeState: callers
// that reuse b (the model scratch) pay only for the final string conversion.
func encodeStateAppend(b []byte, s *protoState) []byte {
	flags := byte(0)
	if s.Busy.Busy {
		flags |= 1
	}
	if s.Busy.IsWrite {
		flags |= 2
	}
	b = append(b, s.DirState, byte(s.DirOwner), s.Sharers, flags,
		byte(s.Busy.Requester), byte(s.Busy.ForwardedTo), s.Memory, s.LastWrite,
		byte(len(s.Sockets)))
	for i := range s.Sockets {
		k := &s.Sockets[i]
		sflags := byte(0)
		if k.HaveData {
			sflags |= 1
		}
		b = append(b, byte(k.LLC), k.LLCData, byte(k.DC), k.DCData,
			byte(k.Pending), sflags, k.PendData, byte(k.AcksNeed), byte(k.AcksGot),
			k.LoadsLeft, k.StoresLeft)
	}
	msgStart := len(b)
	for _, msg := range s.Msgs {
		b = append(b, byte(msg.Kind), byte(msg.Src), byte(msg.Dst),
			byte(msg.Requester), msg.Data, byte(msg.Acks))
	}
	sortMessageRecords(b[msgStart:])
	return b
}

// sortMessageRecords canonically orders the 6-byte message records in place
// (insertion sort: the in-flight message count is small, typically under
// ten, and this avoids the sort.Slice closure and swap allocations).
func sortMessageRecords(b []byte) {
	n := len(b) / encMsgLen
	var tmp [encMsgLen]byte
	for i := 1; i < n; i++ {
		copy(tmp[:], b[i*encMsgLen:(i+1)*encMsgLen])
		j := i - 1
		for j >= 0 && bytes.Compare(b[j*encMsgLen:(j+1)*encMsgLen], tmp[:]) > 0 {
			copy(b[(j+1)*encMsgLen:(j+2)*encMsgLen], b[j*encMsgLen:(j+1)*encMsgLen])
			j--
		}
		copy(b[(j+1)*encMsgLen:(j+2)*encMsgLen], tmp[:])
	}
}

// decodeState parses the canonical encoding back into a freshly allocated
// state. The format is internal to this package; mc treats states as opaque
// strings.
func decodeState(enc string) *protoState {
	s := new(protoState)
	decodeStateInto(s, enc)
	return s
}

// decodeStateInto parses the canonical encoding into s, reusing its socket
// and message backing arrays. This is the hot-path form: the model checker
// decodes every state it visits, and with a pooled target the decode
// allocates nothing in steady state.
func decodeStateInto(s *protoState, enc string) {
	if len(enc) < encHeaderLen {
		panic(fmt.Sprintf("core: malformed protocol state (%d bytes)", len(enc)))
	}
	sockets, msgs := s.Sockets, s.Msgs
	*s = protoState{
		DirState: enc[0],
		DirOwner: int8(enc[1]),
		Sharers:  enc[2],
		Busy: dirBusy{
			Busy:        enc[3]&1 != 0,
			IsWrite:     enc[3]&2 != 0,
			Requester:   int8(enc[4]),
			ForwardedTo: int8(enc[5]),
		},
		Memory:    enc[6],
		LastWrite: enc[7],
	}
	nSockets := int(enc[8])
	off := encHeaderLen
	if rem := len(enc) - off - nSockets*encSockLen; rem < 0 || rem%encMsgLen != 0 {
		panic(fmt.Sprintf("core: malformed protocol state (%d bytes, %d sockets)", len(enc), nSockets))
	}
	if cap(sockets) < nSockets {
		sockets = make([]socketState, nSockets)
	}
	s.Sockets = sockets[:nSockets]
	for i := range s.Sockets {
		k := &s.Sockets[i]
		k.LLC = llcState(enc[off])
		k.LLCData = enc[off+1]
		k.DC = dcState(enc[off+2])
		k.DCData = enc[off+3]
		k.Pending = pendingOp(enc[off+4])
		k.HaveData = enc[off+5]&1 != 0
		k.PendData = enc[off+6]
		k.AcksNeed = int8(enc[off+7])
		k.AcksGot = int8(enc[off+8])
		k.LoadsLeft = enc[off+9]
		k.StoresLeft = enc[off+10]
		off += encSockLen
	}
	nMsgs := (len(enc) - off) / encMsgLen
	if cap(msgs) < nMsgs {
		msgs = make([]message, nMsgs)
	}
	s.Msgs = msgs[:nMsgs]
	for i := range s.Msgs {
		s.Msgs[i] = message{
			Kind:      msgKind(enc[off]),
			Src:       int8(enc[off+1]),
			Dst:       int8(enc[off+2]),
			Requester: int8(enc[off+3]),
			Data:      enc[off+4],
			Acks:      int8(enc[off+5]),
		}
		off += encMsgLen
	}
}

// FormatState renders an encoded state human-readably. It implements the
// model checker's optional StateFormatter interface, so violation reports
// show protocol vocabulary instead of the raw binary encoding.
func (m *ProtocolModel) FormatState(enc string) string { return FormatState(enc) }

// FormatState renders an encoded state human-readably (see the method above;
// the package-level function serves tests and ad-hoc debugging).
func FormatState(enc string) string {
	s := decodeState(enc)
	var b strings.Builder
	fmt.Fprintf(&b, "dir{state:%d owner:%d sharers:%08b busy:%v req:%d fwd:%d} mem:%d lastWrite:%d",
		s.DirState, s.DirOwner, s.Sharers, s.Busy.Busy, s.Busy.Requester, s.Busy.ForwardedTo,
		s.Memory, s.LastWrite)
	for i := range s.Sockets {
		k := &s.Sockets[i]
		fmt.Fprintf(&b, "\n  socket %d: llc:%v/%d dc:%v/%d pending:%d acks:%d/%d loads:%d stores:%d",
			i, k.LLC, k.LLCData, k.DC, k.DCData, k.Pending, k.AcksGot, k.AcksNeed, k.LoadsLeft, k.StoresLeft)
	}
	for _, msg := range s.Msgs {
		fmt.Fprintf(&b, "\n  msg %v %d->%d req:%d data:%d acks:%d",
			msg.Kind, msg.Src, msg.Dst, msg.Requester, msg.Data, msg.Acks)
	}
	return b.String()
}
