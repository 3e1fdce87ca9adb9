package nvkernel

import (
	"bytes"
	"fmt"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// entryKind distinguishes descriptor table entries.
type entryKind int

const (
	kindFree entryKind = iota
	kindFile
	kindListener
	kindConn
)

// fileEntry is one synchronized slot of the per-variant file tables:
// slot k of variant i's table corresponds to slot k of variant j's
// (§3.4). For shared files all variants reference the same open file
// description; for unshared files each variant has its own. The table
// is group-wide: every worker lane sees the same slots, exactly as
// prefork workers inherit one descriptor table's numbering.
type fileEntry struct {
	kind     entryKind
	shared   bool
	files    []*vos.OpenFile
	listener *simnet.Listener
	conn     *simnet.Conn
}

const fdBase = 3 // 0,1,2 are stdin/stdout/stderr

// slotFor returns the table slot for fd, or an error. Caller holds
// s.mu.
func (s *system) slotFor(fd word.Word) (int, error) {
	idx := int(fd) - fdBase
	if idx < 0 || idx >= len(s.files) || s.files[idx].kind == kindFree {
		return 0, fmt.Errorf("fd %d: %w", fd, vos.ErrBadFD)
	}
	return idx, nil
}

// allocSlot finds or creates a free slot and returns its index. A
// recycled slot keeps its files slice capacity so the per-open
// description vector costs nothing in steady state (the per-request
// document open reuses one slot's storage forever). Caller holds s.mu.
func (s *system) allocSlot() int {
	for i := range s.files {
		if s.files[i].kind == kindFree {
			return i
		}
	}
	s.files = append(s.files, fileEntry{})
	return len(s.files) - 1
}

// slotFiles returns the slot's reusable description vector resized to
// n entries. Caller holds s.mu and owns the slot (kindFree).
func (s *system) slotFiles(idx, n int) []*vos.OpenFile {
	files := s.files[idx].files
	if cap(files) < n {
		files = make([]*vos.OpenFile, n)
	}
	return files[:n]
}

// execute performs the (already equivalence-checked) syscall. canon is
// the canonical argument vector. It returns true when the lane's
// monitor loop should stop (exit, alarm, or group kill).
func (l *lane) execute(spec sys.Spec, num sys.Num, canon []word.Word, msgs []*callMsg, seq int) bool {
	s := l.sys
	switch num {
	case sys.Exit:
		// canonicalArgs already guaranteed equal statuses; a status
		// mismatch therefore surfaced as ReasonArgDivergence. Record
		// the lane's clean exit; the group's descriptors are released
		// when the last lane leaves (a worker exiting early must not
		// close the listener under its siblings).
		s.mu.Lock()
		if !l.exited {
			l.exited = true
			s.exitedLanes++
			if l.id == 0 {
				s.status = canon[0]
			}
			if s.exitedLanes == len(s.lanes) {
				s.closeAllLocked()
			}
		}
		s.mu.Unlock()
		replyAll(msgs, sys.Reply{Val: canon[0]})
		return true

	case sys.Open:
		return l.execOpen(canon, msgs, seq, spec)

	case sys.CloseFD:
		s.mu.Lock()
		idx, err := s.slotFor(canon[0])
		if err != nil {
			s.mu.Unlock()
			replyErrno(msgs, err)
			return false
		}
		s.closeSlotLocked(idx)
		s.mu.Unlock()
		replyAll(msgs, sys.Reply{})
		return false

	case sys.Read:
		return l.execRead(canon, msgs, seq, spec)

	case sys.Write:
		return l.execWrite(canon, msgs, seq, spec)

	case sys.Getuid, sys.Geteuid, sys.Getgid, sys.Getegid:
		// Credentials are lane-private (fork semantics): no lock.
		cred := l.cred
		var real word.Word
		switch num {
		case sys.Getuid:
			real = cred.RUID
		case sys.Geteuid:
			real = cred.EUID
		case sys.Getgid:
			real = cred.RGID
		default:
			real = cred.EGID
		}
		// Input class: the trusted result is reexpressed per variant
		// (§3.5: "giving each variant its own varied UID value").
		// Variants are answered as their reexpression succeeds, so a
		// failure raises with only the not-yet-replied tail msgs[i:]
		// (the exactly-one-reply discipline mailbox reuse depends on).
		for i, m := range msgs {
			if m == nil {
				continue
			}
			rep, err := s.cfg.UIDFuncs[i].Apply(real)
			if err != nil {
				l.raise(&Alarm{
					Reason: ReasonUIDDivergence, Syscall: spec.Name, Seq: seq, Variant: i,
					Detail: fmt.Sprintf("cannot reexpress %s: %v", real.Decimal(), err),
				}, msgs[i:])
				return true
			}
			m.reply <- sys.Reply{Val: rep}
		}
		return false

	case sys.Setuid, sys.Seteuid, sys.Setreuid, sys.Setgid, sys.Setegid:
		// Identity changes touch only this lane's credentials, exactly
		// as a prefork worker's setuid affects only its own process.
		cred := l.cred
		var err error
		switch num {
		case sys.Setuid:
			err = cred.Setuid(canon[0])
		case sys.Seteuid:
			err = cred.Seteuid(canon[0])
		case sys.Setreuid:
			err = cred.Setreuid(canon[0], canon[1])
		case sys.Setgid:
			err = cred.Setgid(canon[0])
		default:
			err = cred.Setegid(canon[0])
		}
		if err != nil {
			replyErrno(msgs, err)
			return false
		}
		l.cred = cred
		replyAll(msgs, sys.Reply{})
		return false

	case sys.Listen:
		// net.Listen is internally synchronized; only the slot install
		// needs the table lock.
		listener, err := s.net.Listen(uint16(canon[0]))
		if err != nil {
			replyErrno(msgs, vos.ErrInval)
			return false
		}
		s.mu.Lock()
		if s.killedNow() {
			// Same install-after-teardown shape as Accept: a listener
			// registered after the kill would hold its port forever.
			s.mu.Unlock()
			_ = listener.Close()
			replyAll(msgs, sys.Reply{Killed: true})
			return true
		}
		idx := s.allocSlot()
		s.files[idx] = fileEntry{kind: kindListener, shared: true, listener: listener, files: s.files[idx].files}
		s.mu.Unlock()
		replyAll(msgs, sys.Reply{Val: word.Word(idx + fdBase)})
		return false

	case sys.Accept:
		s.mu.Lock()
		idx, err := s.slotFor(canon[0])
		if err != nil || s.files[idx].kind != kindListener {
			s.mu.Unlock()
			replyErrno(msgs, vos.ErrBadFD)
			return false
		}
		listener := s.files[idx].listener
		s.mu.Unlock()
		// The natural serialization point: concurrent lanes contend on
		// the shared listener here, exactly like prefork Apache workers
		// in accept(2) — each connection goes to exactly one lane.
		conn, err := listener.Accept()
		if err != nil {
			return l.replyFail(msgs, vos.ErrBadFD)
		}
		s.mu.Lock()
		if s.killedNow() {
			// The group died while this lane was blocked in accept (a
			// connection can still win the race against the listener
			// close). The teardown already ran, so installing the conn
			// would leave it open forever — the dialer would park in
			// Recv instead of observing the drop. Close it and retire.
			// Checking under s.mu orders this against kill's
			// closeAllLocked: either we see the kill here, or our
			// install completes first and the teardown closes it.
			s.mu.Unlock()
			_ = conn.Close()
			replyAll(msgs, sys.Reply{Killed: true})
			return true
		}
		cidx := s.allocSlot()
		s.files[cidx] = fileEntry{kind: kindConn, shared: true, conn: conn, files: s.files[cidx].files}
		s.mu.Unlock()
		replyAll(msgs, sys.Reply{Val: word.Word(cidx + fdBase)})
		return false

	case sys.Recv:
		return l.execRecv(canon, msgs, seq, spec)

	case sys.Send:
		return l.execSend(canon, msgs, seq, spec)

	case sys.Time:
		// The clock already ticked for this rendezvous, so back-to-back
		// Time calls still observe strictly increasing values.
		replyAll(msgs, sys.Reply{Val: word.Word(s.vtime.Load())})
		return false

	case sys.Prefork:
		return l.execPrefork(canon, msgs)

	case sys.ScoreAdd:
		// Performed once per lane rendezvous: the lane's variants all
		// observe the same post-add total, so shared-count decisions
		// cannot diverge within a lane.
		total := s.score.Add(int64(int32(canon[0])))
		replyAll(msgs, sys.Reply{Val: word.Word(uint32(total))})
		return false

	case sys.UIDValue:
		// Equivalence was established by canonicalArgs; return each
		// variant its own passed value (Table 2).
		for _, m := range msgs {
			if m == nil {
				continue
			}
			m.reply <- sys.Reply{Val: m.call.Args[0]}
		}
		return false

	case sys.CondChk:
		replyAll(msgs, sys.Reply{Val: canon[0]})
		return false

	case sys.CCEq, sys.CCNeq, sys.CCLt, sys.CCLeq, sys.CCGt, sys.CCGeq:
		// Comparison computed on canonical values, so no operator
		// reversal is needed in transformed variants (§3.5).
		a, b := canon[0], canon[1]
		var truth bool
		switch num {
		case sys.CCEq:
			truth = a == b
		case sys.CCNeq:
			truth = a != b
		case sys.CCLt:
			truth = a < b
		case sys.CCLeq:
			truth = a <= b
		case sys.CCGt:
			truth = a > b
		default:
			truth = a >= b
		}
		val := word.Word(0)
		if truth {
			val = 1
		}
		replyAll(msgs, sys.Reply{Val: val})
		return false

	default:
		l.raise(&Alarm{
			Reason: ReasonSyscallMismatch, Syscall: spec.Name, Seq: seq, Variant: l.ref,
			Detail: fmt.Sprintf("unimplemented syscall %s", spec.Name),
		}, msgs)
		return true
	}
}

// execPrefork widens the group to canon[0] worker lanes. Only the
// primary lane may prefork, exactly once, and every variant program
// must implement sys.WorkerProgram — refusing beats silently serving
// serially while the deployment believes it preforked.
func (l *lane) execPrefork(canon []word.Word, msgs []*callMsg) bool {
	s := l.sys
	w := int(canon[0])
	if l.id != 0 || w < 1 {
		replyErrno(msgs, vos.ErrInval)
		return false
	}
	workers := make([]sys.WorkerProgram, s.n)
	for i, p := range s.progs {
		wp, ok := p.(sys.WorkerProgram)
		if !ok {
			replyErrno(msgs, vos.ErrInval)
			return false
		}
		workers[i] = wp
	}
	s.mu.Lock()
	already := s.preforked
	s.preforked = true
	s.mu.Unlock()
	if already {
		replyErrno(msgs, vos.ErrInval)
		return false
	}
	for id := 1; id < w; id++ {
		s.spawnWorkerLane(id, workers, l.cred)
	}
	replyAll(msgs, sys.Reply{Val: canon[0]})
	return false
}

// execOpen opens a file, honouring the unshared-file mechanism: when
// the path is marked unshared, each variant opens its own diversified
// version and the shared bit of the slot is cleared (§3.4).
func (l *lane) execOpen(canon []word.Word, msgs []*callMsg, seq int, spec sys.Spec) bool {
	s := l.sys
	path := string(msgs[l.ref].call.Data)
	flags := vos.OpenFlag(canon[0])
	perm := vos.Mode(canon[1])

	s.mu.Lock()
	if s.cfg.Unshared[path] && s.n > 1 {
		idx := s.allocSlot()
		files := s.slotFiles(idx, s.n)
		for i := 0; i < s.n; i++ {
			f, err := s.world.FS.Open(UnsharedPath(path, i), flags, perm, l.cred)
			if err != nil {
				for j := 0; j < i; j++ {
					_ = files[j].Close()
					files[j] = nil
				}
				s.mu.Unlock()
				replyErrno(msgs, err)
				return false
			}
			files[i] = f
		}
		s.files[idx] = fileEntry{kind: kindFile, shared: false, files: files}
		s.mu.Unlock()
		replyAll(msgs, sys.Reply{Val: word.Word(idx + fdBase)})
		return false
	}

	f, err := s.world.FS.Open(path, flags, perm, l.cred)
	if err != nil {
		s.mu.Unlock()
		replyErrno(msgs, err)
		return false
	}
	idx := s.allocSlot()
	files := s.slotFiles(idx, s.n)
	for i := range files {
		files[i] = f
	}
	s.files[idx] = fileEntry{kind: kindFile, shared: true, files: files}
	s.mu.Unlock()
	replyAll(msgs, sys.Reply{Val: word.Word(idx + fdBase)})
	return false
}

// execRead implements the input class for files: shared files are read
// once with the result replicated into every variant's memory;
// unshared files are read per variant from the variant's own file.
// File I/O happens under the kernel lock (the filesystem is
// single-threaded by contract); the copies into lane-local variant
// memory do not.
func (l *lane) execRead(canon []word.Word, msgs []*callMsg, seq int, spec sys.Spec) bool {
	s := l.sys
	s.mu.Lock()
	idx, err := s.slotFor(canon[0])
	if err != nil {
		s.mu.Unlock()
		replyErrno(msgs, err)
		return false
	}
	entry := s.files[idx]
	if entry.kind != kindFile {
		s.mu.Unlock()
		replyErrno(msgs, vos.ErrBadFD)
		return false
	}
	n := uint32(canon[2])

	if entry.shared {
		buf := l.readScratch(n, entry.files[0])
		cnt, err := entry.files[0].Read(buf)
		s.mu.Unlock()
		if err != nil {
			replyErrno(msgs, err)
			return false
		}
		for i, m := range msgs {
			if m == nil {
				continue
			}
			addr := m.call.Args[1]
			if err := l.variants[i].mem.WriteBytes(addr, buf[:cnt]); err != nil {
				l.raise(&Alarm{
					Reason: ReasonVariantFault, Syscall: spec.Name, Seq: seq, Variant: i,
					Detail: fmt.Sprintf("copy to variant memory: %v", err),
				}, msgs)
				return true
			}
		}
		replyAll(msgs, sys.Reply{Val: word.Word(cnt)})
		return false
	}

	// Unshared: per-variant reads on per-variant files; lengths,
	// counts and data may legitimately differ because the contents
	// are diversified. Each variant is replied to as its read
	// completes, so failure paths answer only msgs[i:] — variants
	// before i already received their success reply, and a second
	// send into a reused mailbox would corrupt their next call.
	for i, m := range msgs {
		if m == nil {
			continue
		}
		buf := l.readScratch(uint32(m.call.Args[2]), entry.files[i])
		cnt, err := entry.files[i].Read(buf)
		if err != nil {
			s.mu.Unlock()
			replyErrno(msgs[i:], err)
			return false
		}
		addr := m.call.Args[1]
		if err := l.variants[i].mem.WriteBytes(addr, buf[:cnt]); err != nil {
			s.mu.Unlock()
			l.raise(&Alarm{
				Reason: ReasonVariantFault, Syscall: spec.Name, Seq: seq, Variant: i,
				Detail: fmt.Sprintf("copy to variant memory: %v", err),
			}, msgs[i:])
			return true
		}
		m.reply <- sys.Reply{Val: word.Word(cnt)}
	}
	s.mu.Unlock()
	return false
}

// ioScratch returns the lane's reusable staging buffer sized to n
// bytes; the result is valid until the next use (one rendezvous at
// most).
func (l *lane) ioScratch(n uint32) []byte {
	if uint32(cap(l.ioBuf)) < n {
		l.ioBuf = make([]byte, n)
	}
	return l.ioBuf[:n]
}

// readScratch is ioScratch for a read of up to n bytes from f, sized
// to min(n, bytes left in f): a read never returns more than the file
// holds, so a large requested count does not grow the lane's staging
// past the data it actually carries.
func (l *lane) readScratch(n uint32, f *vos.OpenFile) []byte {
	if left := f.Remaining(); int64(n) > left {
		n = uint32(left)
	}
	return l.ioScratch(n)
}

// cmpScratch is ioScratch's sibling for cross-variant comparison.
func (l *lane) cmpScratch(n uint32) []byte {
	if uint32(cap(l.cmpBuf)) < n {
		l.cmpBuf = make([]byte, n)
	}
	return l.cmpBuf[:n]
}

// gatherPayloads reads each variant's output payload from its memory
// and checks byte equality (output equivalence, §3.1). A memory fault
// is a variant fault; divergent payloads are a data-divergence alarm
// (this is how the Apache UID-in-log-message pitfall of §4 manifests).
// The returned slice is pooled lane scratch, borrowed until the next
// rendezvous — every consumer (stdout capture, file write, network
// send) copies before the lane loops again. Lane-local: no lock.
func (l *lane) gatherPayloads(canon []word.Word, msgs []*callMsg, seq int, spec sys.Spec) ([]byte, bool) {
	n := uint32(canon[2])
	ref := l.ref
	first := l.ioScratch(n)
	if err := l.variants[ref].mem.ReadBytesInto(msgs[ref].call.Args[1], first); err != nil {
		l.raise(&Alarm{
			Reason: ReasonVariantFault, Syscall: spec.Name, Seq: seq, Variant: ref,
			Detail: fmt.Sprintf("copy from variant memory: %v", err),
		}, msgs)
		return nil, false
	}
	if len(l.variants) > 1 {
		other := l.cmpScratch(n)
		for i := 0; i < len(l.variants); i++ {
			if i == ref || msgs[i] == nil {
				continue
			}
			if err := l.variants[i].mem.ReadBytesInto(msgs[i].call.Args[1], other); err != nil {
				l.raise(&Alarm{
					Reason: ReasonVariantFault, Syscall: spec.Name, Seq: seq, Variant: i,
					Detail: fmt.Sprintf("copy from variant memory: %v", err),
				}, msgs)
				return nil, false
			}
			if !bytes.Equal(other, first) {
				l.raise(&Alarm{
					Reason: ReasonDataDivergence, Syscall: spec.Name, Seq: seq, Variant: i,
					Detail: fmt.Sprintf("output payload differs from variant %d (%d bytes)", ref, n),
				}, msgs)
				return nil, false
			}
		}
	}
	return first, true
}

// execWrite implements the output class: payloads are cross-checked
// and the write performed once. Writes to unshared files are performed
// per variant without cross-checking (each variant owns its file).
func (l *lane) execWrite(canon []word.Word, msgs []*callMsg, seq int, spec sys.Spec) bool {
	s := l.sys
	fd := canon[0]
	if fd == sys.FDStdout || fd == sys.FDStderr {
		data, ok := l.gatherPayloads(canon, msgs, seq, spec)
		if !ok {
			return true
		}
		s.mu.Lock()
		if fd == sys.FDStdout {
			s.stdout = append(s.stdout, data...)
		} else {
			s.stderr = append(s.stderr, data...)
		}
		s.mu.Unlock()
		replyAll(msgs, sys.Reply{Val: word.Word(len(data))})
		return false
	}

	s.mu.Lock()
	idx, err := s.slotFor(fd)
	if err != nil {
		s.mu.Unlock()
		replyErrno(msgs, err)
		return false
	}
	entry := s.files[idx]
	if entry.kind != kindFile {
		s.mu.Unlock()
		replyErrno(msgs, vos.ErrBadFD)
		return false
	}
	// Pin the open-file descriptions while the lock is held: the
	// slot's files slice is recycled *in place* by closeSlotLocked, so
	// a concurrent group kill (a sibling lane alarming) would turn the
	// aliased entry.files into nils under our feet once the lock is
	// dropped for payload gathering. A pinned description that loses
	// the close race fails the write with EBADF — handled below as a
	// kill — instead of a nil dereference or a write into whatever
	// file a recycled slot holds next.
	files := l.pinFiles(entry.files)
	s.mu.Unlock()

	if entry.shared {
		data, ok := l.gatherPayloads(canon, msgs, seq, spec)
		if !ok {
			return true
		}
		s.mu.Lock()
		cnt, err := files[0].Write(data)
		s.mu.Unlock()
		if err != nil {
			return l.replyFail(msgs, err)
		}
		replyAll(msgs, sys.Reply{Val: word.Word(cnt)})
		return false
	}

	// Per-variant writes to unshared files; like the unshared read
	// path, failures answer only the not-yet-replied tail msgs[i:].
	s.mu.Lock()
	for i, m := range msgs {
		if m == nil {
			continue
		}
		b := l.ioScratch(uint32(m.call.Args[2]))
		if err := l.variants[i].mem.ReadBytesInto(m.call.Args[1], b); err != nil {
			s.mu.Unlock()
			l.raise(&Alarm{
				Reason: ReasonVariantFault, Syscall: spec.Name, Seq: seq, Variant: i,
				Detail: fmt.Sprintf("copy from variant memory: %v", err),
			}, msgs[i:])
			return true
		}
		cnt, err := files[i].Write(b)
		if err != nil {
			s.mu.Unlock()
			return l.replyFail(msgs[i:], err)
		}
		m.reply <- sys.Reply{Val: word.Word(cnt)}
	}
	s.mu.Unlock()
	return false
}

// pinFiles copies a slot's description pointers into the lane's
// reusable pin scratch (valid until the lane's next pin). Caller
// holds s.mu; the returned slice is safe to dereference after the
// lock is dropped because it no longer aliases the slot's storage.
func (l *lane) pinFiles(files []*vos.OpenFile) []*vos.OpenFile {
	if cap(l.pin) < len(files) {
		l.pin = make([]*vos.OpenFile, len(files))
	}
	l.pin = l.pin[:len(files)]
	copy(l.pin, files)
	return l.pin
}

// execRecv performs the network input once and replicates the message
// into every variant's memory. The blocking Recv happens with no lock
// held: a sibling lane may be accepting or receiving concurrently.
func (l *lane) execRecv(canon []word.Word, msgs []*callMsg, seq int, spec sys.Spec) bool {
	s := l.sys
	s.mu.Lock()
	idx, err := s.slotFor(canon[0])
	if err != nil || s.files[idx].kind != kindConn {
		s.mu.Unlock()
		replyErrno(msgs, vos.ErrBadFD)
		return false
	}
	conn := s.files[idx].conn
	s.mu.Unlock()
	data, err := conn.Recv()
	if err != nil {
		return l.replyFail(msgs, vos.ErrBadFD)
	}
	if data == nil {
		replyAll(msgs, sys.Reply{Val: 0}) // end of stream
		return false
	}
	capacity := uint32(canon[2])
	// Faithful to the planted vulnerability: the kernel copies the
	// whole message into variant memory; bounding the copy is the
	// *program's* job, and the vulnerable server passes a capacity
	// larger than its parse buffer. A message exceeding the declared
	// capacity is still bounded by it here — the overflow happens in
	// the program's own unchecked copy, not in the kernel.
	if uint32(len(data)) > capacity {
		data = data[:capacity]
	}
	// The kernel owns the message buffer once Recv returns; after the
	// payload is replicated into every variant's memory it goes back
	// to the network's buffer pool.
	for i, m := range msgs {
		if m == nil {
			continue
		}
		if err := l.variants[i].mem.WriteBytes(m.call.Args[1], data); err != nil {
			simnet.PutBuffer(data)
			l.raise(&Alarm{
				Reason: ReasonVariantFault, Syscall: spec.Name, Seq: seq, Variant: i,
				Detail: fmt.Sprintf("copy to variant memory: %v", err),
			}, msgs)
			return true
		}
	}
	n := uint32(len(data))
	simnet.PutBuffer(data)
	replyAll(msgs, sys.Reply{Val: word.Word(n)})
	return false
}

// execSend cross-checks payloads and transmits once.
func (l *lane) execSend(canon []word.Word, msgs []*callMsg, seq int, spec sys.Spec) bool {
	s := l.sys
	s.mu.Lock()
	idx, err := s.slotFor(canon[0])
	if err != nil || s.files[idx].kind != kindConn {
		s.mu.Unlock()
		replyErrno(msgs, vos.ErrBadFD)
		return false
	}
	conn := s.files[idx].conn
	s.mu.Unlock()
	data, ok := l.gatherPayloads(canon, msgs, seq, spec)
	if !ok {
		return true
	}
	if err := conn.Send(data); err != nil {
		return l.replyFail(msgs, vos.ErrBadFD)
	}
	replyAll(msgs, sys.Reply{Val: word.Word(len(data))})
	return false
}

// closeSlotLocked releases one descriptor slot, retaining the slot's
// description-vector storage for reuse by the next open. Caller holds
// s.mu.
func (s *system) closeSlotLocked(idx int) {
	entry := &s.files[idx]
	switch entry.kind {
	case kindFile:
		if entry.shared {
			_ = entry.files[0].Close()
		} else {
			for _, f := range entry.files {
				_ = f.Close()
			}
		}
	case kindListener:
		_ = entry.listener.Close()
	case kindConn:
		_ = entry.conn.Close()
	}
	files := entry.files
	for i := range files {
		files[i] = nil
	}
	s.files[idx] = fileEntry{files: files[:0]}
}

// closeAllLocked releases every descriptor (on exit or kill). Caller
// holds s.mu.
func (s *system) closeAllLocked() {
	for i := range s.files {
		if s.files[i].kind != kindFree {
			s.closeSlotLocked(i)
		}
	}
}
