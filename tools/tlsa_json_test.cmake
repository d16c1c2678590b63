# ctest script for lint_tlsa: run the static analyzer over the tree
# with --json and every manifest required, then validate the report
# with check_bench_json.py. One test, so a tree violation and a schema
# drift between the two tools both fail it.
#
# Inputs: -DPYTHON=... -DSOURCE_DIR=... -DOUT=...

execute_process(
    COMMAND ${PYTHON} ${SOURCE_DIR}/tools/tlsa.py
            --root ${SOURCE_DIR} --require-manifests --json ${OUT}
    RESULT_VARIABLE lint_rc)
if(NOT lint_rc EQUAL 0)
    message(FATAL_ERROR "tlsa found violations (exit ${lint_rc})")
endif()

execute_process(
    COMMAND ${PYTHON} ${SOURCE_DIR}/tools/check_bench_json.py ${OUT}
    RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "check_bench_json rejected the tlsa report (exit ${check_rc})")
endif()
