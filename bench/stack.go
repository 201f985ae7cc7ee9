package main

import (
	"fmt"
	"strings"

	"perfbase"
)

// session is the slice of the perfbase front end the workloads drive.
// Untraced it is perfbase.Session itself; traced it is the same stack
// assembled from the layers' public constructors (trace.go).
type session interface {
	Setup(defXML string) error
	// Import is what one `perfbase input` invocation does for one file.
	Import(exp, descXML, file string) error
	// Query is what one `perfbase query` invocation does: run the
	// specification, render every output, write the documents to outDir.
	Query(specXML, outDir string) ([]perfbase.Document, error)
	Close() error
}

// stack opens sessions for one client. beginOp and endOp bracket one
// measured operation; only the traced stack cares.
type stack interface {
	OpenDir(dir string) (session, error)
	Connect(addr string) (session, error)
	beginOp()
	endOp()
}

// plainStack is the untraced stack: the calls cmd/perfbase makes.
type plainStack struct{}

type plainSession struct{ s *perfbase.Session }

func (plainStack) OpenDir(dir string) (session, error) {
	s, err := perfbase.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return plainSession{s}, nil
}

func (plainStack) Connect(addr string) (session, error) {
	s, err := perfbase.Connect(addr)
	if err != nil {
		return nil, err
	}
	return plainSession{s}, nil
}

func (plainStack) beginOp() {}
func (plainStack) endOp()   {}

func (p plainSession) Setup(defXML string) error {
	_, err := p.s.Setup(strings.NewReader(defXML))
	return err
}

func (p plainSession) Import(exp, descXML, file string) error {
	ids, err := p.s.Import(exp, strings.NewReader(descXML), perfbase.ImportOptions{}, file)
	if err == nil && len(ids) != 1 {
		err = fmt.Errorf("import of %s created %d runs", file, len(ids))
	}
	return err
}

func (p plainSession) Query(specXML, outDir string) ([]perfbase.Document, error) {
	res, err := p.s.Query(strings.NewReader(specXML))
	if err != nil {
		return nil, err
	}
	docs, err := perfbase.RenderAll(res)
	if err != nil {
		return nil, err
	}
	return docs, perfbase.WriteDocuments(outDir, docs)
}

func (p plainSession) Close() error { return p.s.Close() }
