package dmfserver

import (
	"errors"
	"net/http"

	"perfknow/internal/dmfwire"
)

// The Application → Experiment → Trial hierarchy. Its routes are the trial
// rows of the dmfwire route table (internal/dmfwire/routes.go). Each
// listing handler serves a query-param route and a resource route alike
// (coords reads either), so the two answer with byte-identical bodies.

func (s *Server) handleApplications(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"applications": s.repo.Applications()})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	app, _, _ := coords(r)
	if app == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing app parameter"))
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"experiments": s.repo.Experiments(app)})
}

func (s *Server) handleTrialList(w http.ResponseWriter, r *http.Request) {
	app, exp, _ := coords(r)
	if app == "" || exp == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing app or experiment parameter"))
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"trials": s.repo.Trials(app, exp)})
}

// handleTrialGet answers a get whose Accept names dmfwire.TrialContentType
// with the stored bytes as they are; any other get with trial JSON.
func (s *Server) handleTrialGet(w http.ResponseWriter, r *http.Request) {
	app, exp, name := coords(r)
	if acceptsEncodedTrial(r) {
		data, err := s.repo.GetEncoded(r.Context(), app, exp, name)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		w.Header().Set("Content-Type", dmfwire.TrialContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		return
	}
	t, err := s.repo.GetTrialContext(r.Context(), app, exp, name)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func (s *Server) handleTrialDelete(w http.ResponseWriter, r *http.Request) {
	app, exp, name := coords(r)
	if err := s.repo.DeleteContext(r.Context(), app, exp, name); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}
