# ctest script for det_dbimage_bytes: two fresh processes capture at
# --quick scale into separate empty trace caches, and the database
# images they write (TPCC-<key>.db) must be byte-identical. An image
# holds no heap address, so any difference is a padding or
# uninitialized byte, or a load that depends on the process.
#
# Inputs: -DBENCH=<bench_table2_stats> -DWORK=<scratch directory>

foreach(leg a b)
    file(REMOVE_RECURSE ${WORK}/${leg})
    execute_process(
        COMMAND ${BENCH} --quick --txns=3 --jobs=1
                --trace-cache=${WORK}/${leg}
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "capture into ${WORK}/${leg} failed "
            "(exit ${rc})")
    endif()
    file(GLOB image_${leg} ${WORK}/${leg}/TPCC-*.db)
    list(LENGTH image_${leg} n)
    if(NOT n EQUAL 1)
        message(FATAL_ERROR "expected one database image in "
            "${WORK}/${leg}, found ${n}")
    endif()
endforeach()

get_filename_component(name_a ${image_a} NAME)
get_filename_component(name_b ${image_b} NAME)
if(NOT name_a STREQUAL name_b)
    message(FATAL_ERROR "image keys differ: ${name_a} vs ${name_b}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${image_a} ${image_b}
    RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "database images differ: ${image_a} vs "
        "${image_b}")
endif()
file(REMOVE_RECURSE ${WORK}/a ${WORK}/b)
