// Package relstore is the release store the TM stack's exit paths use: a
// store that every earlier load and store of its thread is ordered before,
// and no more. That is what libitm's ml_wt needs to leave its read side
// (read_unlock) and to release an orec, and what TSX's begin and commit
// give for free; a sequentially consistent atomic store adds a full fence
// (XCHG on amd64) that none of those steps needs.
//
// On amd64 without the race detector a release store is a plain MOV
// through the atomic's address: x86-TSO orders a store after every earlier
// load and store of the same thread. Every other build keeps the atomic
// store — other architectures because their plain stores are not release
// stores, race builds so that the detector still sees each happens-before
// edge the store carries.
//
// A release store does not order the store before the thread's later
// loads. A site that needs that — a Dekker handshake, such as entering an
// epoch slot before loading the serial lock's writer word — keeps its
// read-modify-write.
package relstore
