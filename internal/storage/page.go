package storage

import (
	"bytes"
	"encoding/binary"
	"sort"
)

// Slotted page layout shared by B-tree leaf and interior nodes.
//
//	offset 0  : u8  level (0 = leaf, >0 = interior height)
//	offset 1  : u8  flags (unused)
//	offset 2  : u16 count (number of records)
//	offset 4  : u32 freeOff (next record append offset)
//	offset 8  : u32 next (leaf: right-sibling page, 0 = none)
//	offset 12 : u32 leftmost child (interior only)
//
// Records grow upward from pageHeaderSize; the slot directory (u16 record
// offsets in key order) grows downward from the end of the page.
//
// Leaf record:     u16 klen | u16 vlen | key | value
// Interior record: u16 klen | u16 0    | key | u32 child
//
// Interior semantics: leftmost child covers keys < key[0]; record i's
// child covers keys in [key[i], key[i+1]).
const pageHeaderSize = 16

const invalidPage PageNum = 0 // page 0 is the metadata page, never a node

type nodePage struct {
	data []byte
}

func (p nodePage) level() int     { return int(p.data[0]) }
func (p nodePage) setLevel(l int) { p.data[0] = byte(l) }
func (p nodePage) count() int     { return int(binary.LittleEndian.Uint16(p.data[2:])) }
func (p nodePage) setCount(n int) { binary.LittleEndian.PutUint16(p.data[2:], uint16(n)) }
func (p nodePage) freeOff() int   { return int(binary.LittleEndian.Uint32(p.data[4:])) }
func (p nodePage) setFreeOff(n int) {
	binary.LittleEndian.PutUint32(p.data[4:], uint32(n))
}
func (p nodePage) next() PageNum { return PageNum(binary.LittleEndian.Uint32(p.data[8:])) }
func (p nodePage) setNext(n PageNum) {
	binary.LittleEndian.PutUint32(p.data[8:], uint32(n))
}
func (p nodePage) leftmost() PageNum {
	return PageNum(binary.LittleEndian.Uint32(p.data[12:]))
}
func (p nodePage) setLeftmost(n PageNum) {
	binary.LittleEndian.PutUint32(p.data[12:], uint32(n))
}

func initNodePage(data []byte, level int) nodePage {
	for i := range data[:pageHeaderSize] {
		data[i] = 0
	}
	p := nodePage{data}
	p.setLevel(level)
	p.setFreeOff(pageHeaderSize)
	return p
}

func (p nodePage) slotOff(i int) int {
	return int(binary.LittleEndian.Uint16(p.data[len(p.data)-2*(i+1):]))
}

func (p nodePage) setSlotOff(i, off int) {
	binary.LittleEndian.PutUint16(p.data[len(p.data)-2*(i+1):], uint16(off))
}

func (p nodePage) key(i int) []byte {
	off := p.slotOff(i)
	klen := int(binary.LittleEndian.Uint16(p.data[off:]))
	return p.data[off+4 : off+4+klen]
}

func (p nodePage) value(i int) []byte {
	off := p.slotOff(i)
	klen := int(binary.LittleEndian.Uint16(p.data[off:]))
	vlen := int(binary.LittleEndian.Uint16(p.data[off+2:]))
	return p.data[off+4+klen : off+4+klen+vlen]
}

func (p nodePage) child(i int) PageNum {
	off := p.slotOff(i)
	klen := int(binary.LittleEndian.Uint16(p.data[off:]))
	return PageNum(binary.LittleEndian.Uint32(p.data[off+4+klen:]))
}

func (p nodePage) recordSize(i int) int {
	off := p.slotOff(i)
	klen := int(binary.LittleEndian.Uint16(p.data[off:]))
	if p.level() == 0 {
		vlen := int(binary.LittleEndian.Uint16(p.data[off+2:]))
		return 4 + klen + vlen
	}
	return 4 + klen + 4
}

// freeSpace returns usable bytes for a new record plus its slot entry.
func (p nodePage) freeSpace() int {
	return len(p.data) - 2*p.count() - p.freeOff()
}

// usedBytes returns the payload bytes of live records (without slots).
func (p nodePage) usedBytes() int {
	n := 0
	for i := 0; i < p.count(); i++ {
		n += p.recordSize(i)
	}
	return n
}

// search returns the slot index of the first key >= target and whether an
// exact match was found.
func (p nodePage) search(target []byte) (int, bool) {
	n := p.count()
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(p.key(i), target) >= 0
	})
	return i, i < n && bytes.Equal(p.key(i), target)
}

// childFor returns the child page to descend into for target (interior
// pages only).
func (p nodePage) childFor(target []byte) PageNum {
	n := p.count()
	// First key strictly greater than target; descend into the record
	// before it.
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(p.key(i), target) > 0
	})
	if i == 0 {
		return p.leftmost()
	}
	return p.child(i - 1)
}

// leafInsertAt writes a leaf record at slot i, shifting later slots. The
// caller must ensure space. compactIfNeeded should have been called.
func (p nodePage) leafInsertAt(i int, key, value []byte) {
	rec := 4 + len(key) + len(value)
	off := p.freeOff()
	binary.LittleEndian.PutUint16(p.data[off:], uint16(len(key)))
	binary.LittleEndian.PutUint16(p.data[off+2:], uint16(len(value)))
	copy(p.data[off+4:], key)
	copy(p.data[off+4+len(key):], value)
	p.setFreeOff(off + rec)
	p.insertSlot(i, off)
}

// interiorInsertAt writes an interior record at slot i.
func (p nodePage) interiorInsertAt(i int, key []byte, child PageNum) {
	rec := 4 + len(key) + 4
	off := p.freeOff()
	binary.LittleEndian.PutUint16(p.data[off:], uint16(len(key)))
	binary.LittleEndian.PutUint16(p.data[off+2:], 0)
	copy(p.data[off+4:], key)
	binary.LittleEndian.PutUint32(p.data[off+4+len(key):], uint32(child))
	p.setFreeOff(off + rec)
	p.insertSlot(i, off)
}

func (p nodePage) insertSlot(i, off int) {
	n := p.count()
	// Slot j lives at len-2(j+1); shift slots i..n-1 down by one position.
	for j := n; j > i; j-- {
		p.setSlotOff(j, p.slotOff(j-1))
	}
	p.setSlotOff(i, off)
	p.setCount(n + 1)
}

func (p nodePage) removeSlot(i int) {
	n := p.count()
	for j := i; j < n-1; j++ {
		p.setSlotOff(j, p.slotOff(j+1))
	}
	p.setCount(n - 1)
}

// compact rewrites live records contiguously to defragment free space.
func (p nodePage) compact() {
	n := p.count()
	type rec struct {
		data []byte
	}
	recs := make([]rec, n)
	for i := 0; i < n; i++ {
		off := p.slotOff(i)
		sz := p.recordSize(i)
		cp := make([]byte, sz)
		copy(cp, p.data[off:off+sz])
		recs[i] = rec{cp}
	}
	off := pageHeaderSize
	for i := 0; i < n; i++ {
		copy(p.data[off:], recs[i].data)
		p.setSlotOff(i, off)
		off += len(recs[i].data)
	}
	p.setFreeOff(off)
}

// hasRoomFor reports whether a record of recBytes payload (plus slot) fits
// after compaction; deadBytes accounts for reclaimable fragmentation.
func (p nodePage) hasRoomFor(recBytes int) bool {
	if p.freeSpace() >= recBytes+2 {
		return true
	}
	// Consider compaction.
	live := p.usedBytes()
	total := len(p.data) - pageHeaderSize - 2*p.count()
	return total-live >= recBytes+2
}
