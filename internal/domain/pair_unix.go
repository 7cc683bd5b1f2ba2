//go:build unix

package domain

import (
	"net"
	"os"
	"syscall"
)

// socketPair returns the two ends of a fresh connected AF_UNIX stream
// socketpair. It has no name: nothing of it outlives the process.
func socketPair() (net.Conn, net.Conn, error) {
	fds, err := socketpairFDs()
	if err != nil {
		return nil, nil, os.NewSyscallError("socketpair", err)
	}
	return pairConn{os.NewFile(uintptr(fds[0]), "socketpair")},
		pairConn{os.NewFile(uintptr(fds[1]), "socketpair")}, nil
}

// pairConn is one end of a socketpair. Its descriptor is nonblocking, so
// the file is registered with the runtime's poller: reads, writes,
// deadlines and a Close that wakes a blocked Read all work as on a
// net.Conn.
type pairConn struct{ *os.File }

// LocalAddr and RemoteAddr are the unnamed addresses of a socketpair's
// ends.
func (pairConn) LocalAddr() net.Addr  { return unnamedAddr() }
func (pairConn) RemoteAddr() net.Addr { return unnamedAddr() }

// socketpairFDs makes a nonblocking, close-on-exec AF_UNIX stream pair.
// Close-on-exec is set under ForkLock, so no exec in between inherits
// the ends.
func socketpairFDs() ([2]int, error) {
	syscall.ForkLock.RLock()
	defer syscall.ForkLock.RUnlock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return fds, err
	}
	for _, fd := range fds {
		syscall.CloseOnExec(fd)
		if err := syscall.SetNonblock(fd, true); err != nil {
			syscall.Close(fds[0])
			syscall.Close(fds[1])
			return fds, err
		}
	}
	return fds, nil
}
