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
	syscall.ForkLock.RLock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fds[0])
		syscall.CloseOnExec(fds[1])
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return nil, nil, os.NewSyscallError("socketpair", err)
	}
	a, err := fdConn(fds[0])
	if err != nil {
		syscall.Close(fds[1])
		return nil, nil, err
	}
	b, err := fdConn(fds[1])
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// fdConn wraps fd in a net.Conn. net.FileConn works on a duplicate, so
// fd itself is closed here.
func fdConn(fd int) (net.Conn, error) {
	f := os.NewFile(uintptr(fd), "socketpair")
	defer f.Close()
	return net.FileConn(f)
}
